package daemon

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"testing"

	ktrace "k42trace"
	"k42trace/internal/fed"
	"k42trace/internal/live"
	"k42trace/internal/promtext"
	"k42trace/internal/sdet"
	"k42trace/internal/shm"
	"k42trace/internal/store"
)

// The composed tests own the wiring — flags to options to listeners to
// drain order to exit status — of commands started the way an operator
// starts them, on ":0", finding each other through the ready lines. What a
// package test already holds (the HTTP surfaces, the mask control plane,
// ring membership, query semantics) is not asserted again here.

const lo = "127.0.0.1:0"

// checkSpill is what `ktrace check path` does: the strict reader reads the
// file, no word was garbled, and the trace validates.
func checkSpill(t *testing.T, path string) *ktrace.Trace {
	t.Helper()
	tr, _, st, err := ktrace.OpenTraceFile(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if rep := tr.Validate(); st.Garbled() || !rep.OK() {
		t.Fatalf("%s: %d garbled words, violations %v", path, st.SkippedWords, rep.Violations)
	}
	return tr
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// applied counts the producers in a collector's GET /live/mask that have
// reported mask back in-band.
func applied(t *testing.T, base, mask string) (n int) {
	var st live.MaskStatus
	getJSON(t, base+"/live/mask", &st)
	for _, p := range st.Producers {
		if p.AppliedMask == mask {
			n++
		}
	}
	return n
}

// throttled stops a -loadgen -remote-control sender and checks that it
// applied a pushed mask and that the mask refused some of its attempts.
func throttled(t *testing.T, sender *running) {
	t.Helper()
	sender.stopped(0)
	sender.expect(`remote-control: \d+ control frames, [1-9]\d* mask applies`)
	if m := sender.expect(`loadgen: (\d+) logging attempts, (\d+) events logged`); atoi(t, m[2]) >= atoi(t, m[1]) {
		t.Errorf("disabled majors kept logging: %s", m[0])
	}
}

// TestLive: a collector, two concurrent reliable producers, a mask POSTed
// to the collector reaching a running producer's tracer, and a drain that
// leaves a sound spill with the mask change recorded in-band.
func TestLive(t *testing.T) {
	defer settles(t)()
	spill := filepath.Join(t.TempDir(), "drained.ktr")
	colld := start(t, Tracecolld, "-listen", lo, "-http", lo, "-spill", spill)
	m := colld.expect(`producers on (\S+), http on (\S+)\n`)
	addr, base := m[1], "http://"+m[2]

	p1 := start(t, Tracerelay, "-send", addr, "-cpus", "2", "-reconnect")
	p2 := start(t, Tracerelay, "-send", addr, "-cpus", "2", "-reconnect")
	p1.exits(0)
	p2.exits(0)
	p1.expect(`reliable: [1-9]\d* blocks, 1 dials, 0 retries, 0 dropped\n`)
	eventually(t, "both producers' blocks in /live/overview", func() bool {
		var snap live.Snapshot
		getJSON(t, base+"/live/overview", &snap)
		return len(snap.Producers) == 2 && snap.Producers[0].Blocks > 0 && snap.Producers[1].Blocks > 0
	})

	// A long-lived producer keeps attempting MEM and SCHED events; narrowing
	// the mask to CTRL+TEST stops them at the source, and the producer
	// reports the applied mask back in-band.
	p3 := start(t, Tracerelay, "-send", addr, "-cpus", "2", "-loadgen", "-duration", "1m", "-rate", "300000", "-remote-control")
	if code, _, body := call(t, "POST", base+"/live/mask", "mask=ctrl,test"); code != 200 {
		t.Fatalf("POST /live/mask: %d %s", code, body)
	}
	eventually(t, "the pushed mask to be applied", func() bool { return applied(t, base, "0x2001") == 1 })
	throttled(t, p3)

	colld.stopped(0)
	colld.expect(`tracecolld: 3 producers, [1-9]\d* blocks, [1-9]\d* events \(0 garbled, 0 stuck-seal blocks\)\ntracecolld: spilled to `)
	if tr := checkSpill(t, spill); len(tr.MaskEpochs) == 0 {
		t.Error("no CtrlMaskChange marker in the spill")
	}
}

// TestShm: ktraced owns a segment, real client processes log into it, one
// is SIGKILLed holding an uncommitted reservation — the §3.1 failure — and
// the drained spill accounts for exactly that loss.
func TestShm(t *testing.T) {
	defer settles(t)()
	dir := t.TempDir()
	seg, spill := filepath.Join(dir, "k42.seg"), filepath.Join(dir, "drained.ktr")
	ktraced := start(t, Ktraced, "-seg", seg, "-cpus", "2", "-spill", spill, "-admin", lo)
	ktraced.expect(`segment \S+ ready: 2 cpu .*\nktraced: admin on http://\S+\n`)
	attached := func(pid int) bool {
		info, err := ktrace.InspectShmSegment(seg) // ktrace check -shm
		if err != nil || info.State != "ready" {
			t.Fatalf("inspecting the live segment: %v, state %q", err, info.State)
		}
		return slices.ContainsFunc(info.Clients, func(c shm.ClientInfo) bool { return c.Pid == pid })
	}

	healthy := spawn(t, "shmlog", "-seg", seg, "-n", "20000")
	hung := spawn(t, "shmlog", "-seg", seg, "-hang", "-payload", "3")
	hung.expect(`hung with 4 uncommitted words`)
	pid := hung.child.Process.Pid
	if !attached(pid) {
		t.Fatalf("live inspect misses the hung client, pid %d", pid)
	}
	hung.child.Process.Kill()
	eventually(t, "the dead client to be reaped", func() bool { return !attached(pid) })
	healthy.exits(0)
	healthy.expect(`logged 20000 events`)
	// A client that attaches after the kill: the ring still flows.
	late := spawn(t, "shmlog", "-seg", seg, "-workload", "-cpu", "1", "-pid", "202", "-n", "500")
	late.exits(0)
	late.expect(`logged 1700 events`)
	// Arguments the segment cannot take are refused, and no refusal leaves
	// this process's client slot held.
	for _, bad := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-cpu", "2"}, 2, "shmlog: -cpu 2: the segment has 2 CPU slots\n"},
		{[]string{"-hang", "-payload", "20000"}, 1, "shmlog: hang reservation failed (masked, dropped or too large)\n"},
	} {
		r := start(t, Shmlog, append([]string{"-seg", seg}, bad.args...)...)
		r.exits(bad.code)
		if got := r.stderr.String(); got != bad.stderr {
			t.Errorf("shmlog %v: stderr %q, want %q", bad.args, got, bad.stderr)
		}
	}
	if attached(os.Getpid()) {
		t.Error("a refused shmlog left this process attached")
	}

	// The kill left one anomalous block, and ktraced says so with status 1.
	ktraced.stopped(1)
	ktraced.expect(`ktraced: \d+ blocks \(1 anomalous\), \d+ events, 1 dead clients reaped\n`)
	_, rep, err := ktrace.SalvageTraceFile(spill, 0) // ktrace check -salvage
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksGood == 0 || rep.BlocksSkipped+rep.DupBlocks+rep.Reordered+rep.LostBlocks != 0 || rep.Stats.SkippedWords != 4 || rep.Clean() {
		t.Errorf("salvage of a kill-only spill, want nothing lost but the 4 reserved words:\n%s", rep)
	}
}

// TestShmRelay is ktraced's other sink: the segment drains over the relay
// wire into `tracecolld`'s spill, with the client in this process.
func TestShmRelay(t *testing.T) {
	defer settles(t)()
	dir := t.TempDir()
	seg, got := filepath.Join(dir, "k42.seg"), filepath.Join(dir, "collected.ktr")
	collector := start(t, Tracecolld, "-listen", lo, "-http", lo, "-cpu-slots", "4", "-spill", got)
	ktraced := start(t, Ktraced, "-seg", seg, "-rm", "-relay", collector.expect(`producers on (\S+), http on`)[1])
	ktraced.expect(`segment \S+ ready`)
	start(t, Shmlog, "-seg", seg, "-n", "5000").exits(0)
	ktraced.stopped(0)
	collector.stopped(0)
	collector.expect(`1 producers, [1-9]\d* blocks, \d+ events \(0 garbled, 0 stuck-seal blocks\)\n`)
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Errorf("-rm left the segment file: %v", err)
	}
	logged := 0
	for _, e := range checkSpill(t, got).Events {
		if e.Major() == ktrace.MajorTest {
			logged++
		}
	}
	if logged != 5000 {
		t.Errorf("collected %d of the 5000 events logged", logged)
	}
}

// TestFed: an aggregator, three shards under it — the third a real
// process, so that SIGKILL takes its listeners without a drain —
// ring-resolved producers, a mask fanned down on the heartbeat replies, the
// killed shard expiring off the ring while producers rehash, and a drain.
func TestFed(t *testing.T) {
	defer settles(t)()
	dir := t.TempDir()
	aggd := start(t, Traceaggd, "-http", lo, "-member-ttl", "1s")
	agg := "http://" + aggd.expect(`http on (\S+)\n`)[1]
	shardArgs := func(name string) []string {
		return []string{"-listen", lo, "-http", lo, "-spill", filepath.Join(dir, name+".ktr"),
			"-agg-http", agg, "-name", name, "-heartbeat", "100ms"}
	}
	shards := []*running{start(t, Tracecolld, shardArgs("c0")...), start(t, Tracecolld, shardArgs("c1")...),
		spawn(t, "tracecolld", shardArgs("c2")...)}
	var addrs, bases []string
	for _, s := range shards {
		m := s.expect(`producers on (\S+), http on (\S+)\n`)
		addrs, bases = append(addrs, m[1]), append(bases, "http://"+m[2])
	}
	onRing := func(addr string) bool {
		var ring fed.RingDoc
		getJSON(t, agg+"/fed/ring", &ring)
		return slices.Contains(ring.Members, addr)
	}
	// The ring lists the addresses the shards are bound to, not ":0".
	eventually(t, "all three shards on the ring", func() bool { return onRing(addrs[0]) && onRing(addrs[1]) && onRing(addrs[2]) })
	// A shard serves its federation counters beside the collector's
	// endpoints, under its name and the address it is bound to.
	var st fed.ShardStats
	eventually(t, "c0's /fed/shard to count a heartbeat", func() bool {
		getJSON(t, bases[0]+"/fed/shard", &st)
		return st.HeartbeatsOK >= 1
	})
	if st.Name != "c0" || st.Advertise != addrs[0] {
		t.Errorf("c0's /fed/shard names %q advertising %q, want c0 advertising %s", st.Name, st.Advertise, addrs[0])
	}

	var producers []*running
	for i := 0; i < 6; i++ {
		producers = append(producers, start(t, Tracerelay, "-fed", agg, "-key", "web-"+strconv.Itoa(i), "-cpus", "2"))
	}
	for _, p := range producers {
		p.exits(0)
		p.expect(`reliable: [1-9]\d* blocks, .* 0 dropped\n`)
	}
	var doc fed.FedOverview
	eventually(t, "a heartbeat to carry shard blocks upward", func() bool {
		getJSON(t, agg+"/fed/overview", &doc)
		return slices.ContainsFunc(doc.Members, func(m fed.FedMember) bool { return m.Blocks > 0 })
	})

	// A mask POSTed at the aggregator reaches a producer through a shard's
	// heartbeat reply, and the change is recorded in-band all the way up:
	// the shard's next heartbeat carries the mask epoch. The producer's key
	// is one a surviving shard owns, so the drain below finds the marker in
	// that shard's spill.
	var ring fed.RingDoc
	getJSON(t, agg+"/fed/ring", &ring)
	ctlKey := ""
	for i := 0; ctlKey == ""; i++ {
		if owner, _ := ring.Owner("ctl-" + strconv.Itoa(i)); owner != addrs[2] {
			ctlKey = "ctl-" + strconv.Itoa(i)
		}
	}
	ctl := start(t, Tracerelay, "-fed", agg, "-key", ctlKey, "-cpus", "2", "-loadgen", "-duration", "1m",
		"-rate", "300000", "-remote-control", "-attempts", "40")
	if code, _, body := call(t, "POST", agg+"/live/mask", "mask=ctrl,test"); code != 200 {
		t.Fatalf("POST /live/mask: %d %s", code, body)
	}
	eventually(t, "a shard to see the fanned-down mask applied", func() bool {
		return applied(t, bases[0], "0x2001")+applied(t, bases[1], "0x2001")+applied(t, bases[2], "0x2001") > 0
	})
	eventually(t, "the mask epoch to reach the aggregator", func() bool {
		getJSON(t, agg+"/fed/overview", &doc)
		return len(doc.MaskEpochs) > 0
	})

	// SIGKILL: no leaving heartbeat, so the ring expires the shard; a
	// producer arriving after the loss resolves onto a survivor.
	shards[2].child.Process.Kill()
	eventually(t, "the killed shard to expire off the ring", func() bool { return !onRing(addrs[2]) })
	code, hdr, page := call(t, "GET", agg+"/metrics", "")
	for _, want := range []string{`traceaggd_members\{state="expired"\} 1`, `traceaggd_heartbeats_total [1-9]\d*`, `traceaggd_desired_mask_majors 2`} {
		if !regexp.MustCompile(`(?m)^` + want + `$`).MatchString(page) {
			t.Errorf("aggregator /metrics (status %d) has no line %s:\n%s", code, want, page)
		}
	}
	if ct := hdr.Get("Content-Type"); ct != promtext.ContentType {
		t.Errorf("aggregator /metrics content type %q", ct)
	}
	late := start(t, Tracerelay, "-fed", agg, "-key", "web-9", "-cpus", "2")
	late.exits(0)
	late.expect(`reliable: [1-9]\d* blocks, .* 0 dropped\n`)
	throttled(t, ctl)

	// Drain the survivors, then the aggregator: the leaving heartbeat
	// carries each shard's final overview into the merged one.
	epochs := 0
	for i, s := range shards[:2] {
		s.stopped(0)
		s.expect(`heartbeats [1-9]\d* ok, `)
		// A shard that never owned a key leaves an empty spill.
		path := filepath.Join(dir, "c"+strconv.Itoa(i)+".ktr")
		if fi, err := os.Stat(path); err != nil || fi.Size() > 0 {
			epochs += len(checkSpill(t, path).MaskEpochs)
		}
	}
	aggd.stopped(0)
	aggd.expect(`traceaggd: 3 shards seen \(0 active, 2 left, 1 expired\), [1-9]\d* processes in merged overview\n`)
	if epochs == 0 {
		t.Error("no CtrlMaskChange marker in a surviving shard's spill")
	}
}

// TestStore is the trace store as an operator starts it: every flag of the
// command line below has to reach the store for the leg that needs it —
// -seg-span for the split that compaction then merges, -cache-bytes for the
// hits, the three admission flags for the 429s, -watch for the spool,
// -retain-bytes for the GC, -relay for the wire ingest — and a collector
// hands its drained spill over with -store.
func TestStore(t *testing.T) {
	defer settles(t)()
	var buf bytes.Buffer
	if _, err := sdet.Run(sdet.Config{CPUs: 4, Trace: sdet.TraceOn, Sample: 10_000,
		Params: sdet.Params{ScriptsPerCPU: 12, CommandsPerScript: 12, Seed: 42}}, &buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	root, spool := filepath.Join(dir, "store"), filepath.Join(dir, "spool")
	if err := os.MkdirAll(filepath.Join(spool, "globex"), 0o755); err != nil {
		t.Fatal(err)
	}
	// The scan pool is one slot with no queue: overlapping queries draw
	// 429s. The byte budget holds two uploads of the three GC will see.
	stored := start(t, Tracestored, "-root", root, "-http", lo, "-relay", lo, "-relay-tenant", "wire",
		"-watch", spool, "-watch-every", "20ms", "-seg-span", "1", "-retain-bytes", strconv.Itoa(buf.Len()*5/2),
		"-cache-bytes", "67108864", "-query-concurrency", "1", "-tenant-queries", "1", "-tenant-queue", "0")
	m := stored.expect(`relay ingest on (\S+) \(tenant wire\)\n(?s:.*)http on (\S+)\n`)
	wire, base := m[1], "http://"+m[2]
	post := func(path, body string, v any) {
		t.Helper()
		code, _, body := call(t, "POST", base+path, body)
		if err := json.Unmarshal([]byte(body), v); code != 200 || err != nil {
			t.Fatalf("POST %s: %d %v: %s", path, code, err, body)
		}
	}
	segments := func(tenant string) int {
		var ts []store.TenantStats
		getJSON(t, base+"/tenants", &ts)
		i := slices.IndexFunc(ts, func(s store.TenantStats) bool { return s.Name == tenant })
		if i < 0 {
			t.Fatalf("no tenant %s in %+v", tenant, ts)
		}
		return ts[i].Segments
	}
	matched := func(query string) int {
		code, hdr, body := call(t, "GET", base+"/query?"+query, "")
		if code != 200 {
			t.Fatalf("GET /query?%s: %d %s", query, code, body)
		}
		return atoi(t, hdr.Get("X-Events"))
	}
	metric := func(pattern string) {
		t.Helper()
		if _, _, body := call(t, "GET", base+"/metrics", ""); !regexp.MustCompile(`(?m)^` + pattern).MatchString(body) {
			t.Errorf("/metrics has no %s", pattern)
		}
	}
	var up store.IngestResult
	post("/ingest?tenant=acme", buf.String(), &up)
	events, split := int(up.Events), segments("acme")
	if events == 0 || split < 3 {
		t.Fatalf("ingest stored %d events in %d segments, want a multi-segment split", events, split)
	}
	for range 2 { // the repeat is served from the segment cache
		if n := matched("tenant=acme"); n != events {
			t.Errorf("full query saw %d events, ingest stored %d", n, events)
		}
	}
	metric(`tracestored_cache_hits_total\{tenant="acme"\} [1-9]`)

	// Overlapping brute-force scans: one holds the slot, another is refused.
	eventually(t, "parallel queries to draw a 429 beside a 200", func() bool {
		codes := make([]int, 8)
		var wg sync.WaitGroup
		for i := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if resp, err := client.Get(base + "/query?tenant=acme&noprune=1"); err == nil {
					codes[i] = resp.StatusCode
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()
		return slices.Contains(codes, 429) && slices.Contains(codes, 200)
	})
	metric(`tracestored_admission_rejected_total\{tenant="acme"\} [1-9]`)

	// Compaction merges the split and conserves the events; every segment,
	// merged or not, is a sound trace file.
	var merged store.CompactResult
	post("/admin/compact?tenant=acme", "", &merged)
	if n := segments("acme"); n >= split || matched("tenant=acme") != events {
		t.Errorf("compaction left %d of %d segments and %d of %d events", n, split, matched("tenant=acme"), events)
	}
	segs, _ := filepath.Glob(filepath.Join(root, "acme", "seg-*.ktr"))
	for _, path := range segs {
		checkSpill(t, path)
	}

	// The spool: a file that appears under <watch>/<tenant>/ is ingested
	// and renamed aside.
	run1 := filepath.Join(spool, "globex", "run1.ktr")
	if err := os.WriteFile(run1+".part", buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	os.Rename(run1+".part", run1)
	eventually(t, "the spooled file to be ingested", func() bool { _, err := os.Stat(run1 + ".stored"); return err == nil })
	if n := matched("tenant=globex"); n != events {
		t.Errorf("watch ingest stored %d of %d events", n, events)
	}

	// GC against the byte budget drops whole oldest segments.
	post("/ingest?tenant=acme", buf.String(), &up)
	post("/ingest?tenant=acme", buf.String(), &up)
	var gc store.GCResult
	post("/admin/gc?tenant=acme", "", &gc)
	if n := matched("tenant=acme"); gc.Segments == 0 || n <= 0 || n >= 3*events || n%events != 0 {
		t.Errorf("gc freed %d segments and left %d events, want a whole number of uploads of %d below three", gc.Segments, n, events)
	}
	metric(`tracestored_gc_segments_total\{tenant="acme"\} [1-9]`)

	// A sender on the relay wire is one upload under -relay-tenant.
	start(t, Tracerelay, "-send", wire, "-cpus", "2").exits(0)
	stored.expect(`relay upload \d+ from \S+: [1-9]\d* events in `)
	// The collector keeps no long-term state: it hands its spill over. A
	// sender that has exited is read to its end by the drain that follows at
	// once, so the spill holds every block it sent.
	colld := start(t, Tracecolld, "-listen", lo, "-http", lo, "-spill", filepath.Join(dir, "colld.ktr"), "-store", base, "-store-tenant", "colld")
	m = colld.expect(`producers on (\S+), http on (\S+)\n`)
	p := start(t, Tracerelay, "-send", m[1], "-cpus", "2", "-reconnect")
	p.exits(0)
	sent := atoi(t, p.expect(`reliable: (\d+) blocks`)[1])
	colld.stopped(0)
	if got := atoi(t, colld.expect(`1 producers, (\d+) blocks`)[1]); got != sent {
		t.Errorf("the producer sent %d blocks and exited, the collector drained %d", sent, got)
	}
	colld.expect(`spill uploaded to \S+ \(tenant colld\)\n`)
	if matched("tenant=colld") == 0 || matched("tenant=wire") == 0 {
		t.Error("the collector's or the relay wire's tenant holds no events")
	}

	stored.stopped(0)
	stored.expect(`shutting down\ntracestored: tenant acme: \d+ segments, \d+ events, \d+ bytes\n`)
}
