package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"k42trace/internal/event"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// fixedNow keeps fixtures and retention tests deterministic.
func fixedNow(sec *int64) func() time.Time {
	return func() time.Time { return time.Unix(*sec, 0) }
}

// sdetSpill builds one clean SDET trace big enough to span many blocks
// (the store's canonical input; ~18 blocks over 4 CPUs).
func sdetSpill(t testing.TB, seed int64) []byte { return sdetRun(t, 16, 20, seed) }

// sdetSmall is a cheaper single-block-per-CPU spill for tests that only
// need bytes in the store, not a multi-segment split.
func sdetSmall(t testing.TB, seed int64) []byte { return sdetRun(t, 6, 8, seed) }

func sdetRun(t testing.TB, scripts, commands int, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := sdet.Run(sdet.Config{CPUs: 4, Trace: sdet.TraceOn,
		Params: sdet.Params{ScriptsPerCPU: scripts, CommandsPerScript: commands, Seed: seed},
		Sample: 10_000, HWCSample: 12_000}, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAllEvents is the offline baseline: the merged event stream of a
// clean spill.
func readAllEvents(t testing.TB, data []byte) ([]event.Event, stream.Meta) {
	t.Helper()
	rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	evs, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return evs, rd.Meta()
}

func openStore(t testing.TB, opt Options) *Store {
	t.Helper()
	if opt.Root == "" {
		opt.Root = t.TempDir()
	}
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func ingestBytes(t testing.TB, s *Store, tenant string, data []byte) *IngestResult {
	t.Helper()
	res, err := s.Ingest(tenant, bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameEvents compares two event slices exactly (header, time, cpu, data).
func sameEvents(a, b []event.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Header != b[i].Header || a[i].Time != b[i].Time || a[i].CPU != b[i].CPU {
			return false
		}
		if len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}

// paramMatrix builds the query matrix the parity tests sweep: time
// ranges crossed with predicates and aggregations derived from the
// baseline events.
func paramMatrix(tenant string, evs []event.Event) []Params {
	lo, hi := evs[0].Time, evs[0].Time
	pids := map[uint64]bool{}
	for i := range evs {
		e := &evs[i]
		if e.Time < lo {
			lo = e.Time
		}
		if e.Time > hi {
			hi = e.Time
		}
		for _, d := range e.Data {
			_ = d
		}
	}
	// Two real pids from the trace's sched switches.
	var pidA, pidB uint64
	for i := range evs {
		e := &evs[i]
		if e.Major() == event.MajorSched && len(e.Data) >= 2 && e.Data[1] != 0 {
			if pidA == 0 {
				pidA = e.Data[1]
			} else if e.Data[1] != pidA {
				pidB = e.Data[1]
				break
			}
		}
	}
	_ = pids
	q1 := lo + (hi-lo)/4
	q3 := lo + 3*(hi-lo)/4
	ranges := []struct{ from, to uint64 }{
		{0, 0},       // everything
		{q1, q3},     // middle half
		{lo, q1},     // head
		{q3, hi + 1}, // tail
	}
	preds := []Params{
		{},
		{HasMajor: true, Major: event.MajorSched},
		{HasMajor: true, Major: event.MajorLock},
		{HasPid: true, Pid: pidA},
		{HasPid: true, Pid: pidB},
	}
	var out []Params
	for _, r := range ranges {
		for _, pr := range preds {
			p := pr
			p.Tenant, p.From, p.To, p.Agg = tenant, r.from, r.to, "events"
			out = append(out, p)
		}
	}
	// Aggregations over the full range and the middle half.
	for _, r := range []struct{ from, to uint64 }{{0, 0}, {q1, q3}} {
		for _, agg := range []string{"overview", "lockstat", "profile", "memprofile"} {
			out = append(out, Params{Tenant: tenant, From: r.from, To: r.to, Agg: agg})
		}
		out = append(out, Params{Tenant: tenant, From: r.from, To: r.to,
			Agg: "timebreak", HasPid: true, Pid: pidA})
	}
	return out
}

// TestIngestQueryParity is the heart of the harness: for every query in
// the matrix, the store's answer (pruned, parallel, over split segments)
// must exactly equal filtering the original spill's merged stream — same
// events and same formatted report, at 1 and 8 workers.
func TestIngestQueryParity(t *testing.T) {
	data := sdetSpill(t, 42)
	base, meta := readAllEvents(t, data)
	if len(base) == 0 {
		t.Fatal("empty baseline")
	}
	lo, hi := base[0].Time, base[len(base)-1].Time
	span := (hi - lo) / 7 // force a multi-segment split

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			s := openStore(t, Options{SegmentSpan: span, Workers: workers})
			res := ingestBytes(t, s, "acme", data)
			if res.Events != uint64(len(base)) {
				t.Fatalf("ingested %d events, spill holds %d", res.Events, len(base))
			}
			if len(res.Segments) < 2 {
				t.Fatalf("expected a multi-segment split, got %d segments", len(res.Segments))
			}
			for _, p := range paramMatrix("acme", base) {
				want := MatchStream(base, p)
				got, err := s.Query(p)
				if err != nil {
					t.Fatalf("%v: %v", p.values().Encode(), err)
				}
				if !sameEvents(got.Events, want) {
					t.Errorf("%v: %d events, baseline %d (or order/content differs)",
						p.values().Encode(), len(got.Events), len(want))
					continue
				}
				// Formatted output must match the offline render of the
				// same filtered events.
				var gotTxt, wantTxt strings.Builder
				if err := got.Format(&gotTxt, workers); err != nil {
					t.Fatal(err)
				}
				baseRes := &Result{Params: p, Hz: meta.ClockHz, Events: want}
				if err := baseRes.Format(&wantTxt, workers); err != nil {
					t.Fatal(err)
				}
				if gotTxt.String() != wantTxt.String() {
					t.Errorf("%v: formatted output diverged", p.values().Encode())
				}
			}
		})
	}
}

// TestPruningInvariant: index pruning must never change results — for
// every matrix query, pruned and full scans agree, and pruning actually
// skips work for selective predicates.
func TestPruningInvariant(t *testing.T) {
	data := sdetSpill(t, 7)
	base, _ := readAllEvents(t, data)
	lo, hi := base[0].Time, base[len(base)-1].Time
	s := openStore(t, Options{SegmentSpan: (hi - lo) / 5, Workers: 4})
	ingestBytes(t, s, "acme", data)

	var anyPruned bool
	for _, p := range paramMatrix("acme", base) {
		pruned, err := s.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		full := p
		full.NoPrune = true
		unpruned, err := s.Query(full)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEvents(pruned.Events, unpruned.Events) {
			t.Errorf("%v: pruned scan differs from full scan", p.values().Encode())
		}
		if pruned.BlocksPruned > 0 || pruned.SegsPruned > 0 {
			anyPruned = true
		}
		if pruned.BlocksScanned > unpruned.BlocksScanned {
			t.Errorf("%v: pruned scan read more blocks (%d) than full scan (%d)",
				p.values().Encode(), pruned.BlocksScanned, unpruned.BlocksScanned)
		}
	}
	if !anyPruned {
		t.Error("no query in the matrix pruned anything; index is dead weight")
	}
}

// TestCompactionParity: compaction must conserve events exactly and be
// invisible to queries, and its outputs must be clean openable traces.
func TestCompactionParity(t *testing.T) {
	data := sdetSpill(t, 11)
	base, _ := readAllEvents(t, data)
	lo, hi := base[0].Time, base[len(base)-1].Time
	s := openStore(t, Options{SegmentSpan: (hi - lo) / 9, Workers: 4})
	res := ingestBytes(t, s, "acme", data)
	if len(res.Segments) < 3 {
		t.Fatalf("need >= 3 segments to compact, got %d", len(res.Segments))
	}

	matrix := paramMatrix("acme", base)
	before := make([]*Result, len(matrix))
	for i, p := range matrix {
		r, err := s.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = r
	}

	cr, err := s.Compact("acme")
	if err != nil {
		t.Fatal(err)
	}
	if cr.Runs == 0 {
		t.Fatal("compaction merged nothing")
	}
	st := s.Tenants()[0]
	if st.Segments >= len(res.Segments) {
		t.Fatalf("still %d segments after compacting %d", st.Segments, len(res.Segments))
	}
	if st.Events != uint64(len(base)) {
		t.Fatalf("catalog holds %d events after compaction, want %d", st.Events, len(base))
	}

	for i, p := range matrix {
		r, err := s.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEvents(r.Events, before[i].Events) {
			t.Errorf("%v: results changed across compaction", p.values().Encode())
		}
	}

	// Every stored segment must be a clean, salvage-transparent trace.
	dir := filepath.Join(s.opt.Root, "acme")
	paths, _ := filepath.Glob(filepath.Join(dir, "seg-*.ktr"))
	if len(paths) != st.Segments {
		t.Fatalf("%d segment files on disk, catalog says %d", len(paths), st.Segments)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := stream.SalvageBlocks(bytes.NewReader(b), int64(len(b)), 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !rep.Clean() {
			t.Errorf("%s: stored segment needed salvage:\n%s", path, rep)
		}
	}
}

// TestRetention: age expiry uses the ingest clock; byte budgets drop the
// oldest uploads first; both are invisible to the surviving data.
func TestRetention(t *testing.T) {
	now := int64(1_000_000)
	dataA := sdetSmall(t, 1)
	dataB := sdetSmall(t, 2)
	s := openStore(t, Options{RetainAge: time.Hour, Now: fixedNow(&now)})
	ingestBytes(t, s, "acme", dataA)
	now += 3600 + 1 // first upload ages out
	ingestBytes(t, s, "acme", dataB)

	gr, err := s.GC("acme")
	if err != nil {
		t.Fatal(err)
	}
	if gr.Segments == 0 {
		t.Fatal("age GC expired nothing")
	}
	baseB, _ := readAllEvents(t, dataB)
	r, err := s.Query(Params{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if !sameEvents(r.Events, baseB) {
		t.Fatal("survivor data changed after age GC")
	}

	// Byte budget: keep roughly one upload's bytes.
	s2 := openStore(t, Options{RetainBytes: int64(len(dataB) + 1024), Now: fixedNow(&now)})
	ingestBytes(t, s2, "acme", dataA)
	ingestBytes(t, s2, "acme", dataB)
	gr2, err := s2.GC("acme")
	if err != nil {
		t.Fatal(err)
	}
	if gr2.Segments == 0 {
		t.Fatal("byte GC expired nothing")
	}
	st := s2.Tenants()[0]
	if st.Bytes > int64(len(dataB))+1024 {
		t.Fatalf("still %d bytes, budget %d", st.Bytes, len(dataB)+1024)
	}
}

// TestRecoverySweepsOrphans: files the manifest does not reference —
// crash debris — are deleted at open; committed data is untouched.
func TestRecoverySweepsOrphans(t *testing.T) {
	root := t.TempDir()
	data := sdetSmall(t, 3)
	base, _ := readAllEvents(t, data)
	s := openStore(t, Options{Root: root})
	ingestBytes(t, s, "acme", data)
	s.Close()

	dir := filepath.Join(root, "acme")
	orphans := []string{"seg-99999999.ktr", "seg-99999999.ktr.kix", "manifest.json.tmp"}
	for _, n := range orphans {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openStore(t, Options{Root: root})
	for _, n := range orphans {
		if _, err := os.Stat(filepath.Join(dir, n)); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived recovery", n)
		}
	}
	r, err := s2.Query(Params{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if !sameEvents(r.Events, base) {
		t.Fatal("committed data changed across recovery")
	}
}

// asVersion1 rewrites a sidecar in the layout an older build wrote: each
// 15-word record gains a start word after its seq (here the block's
// MinTime) to make 16, the version word says 1, and the checksum — FNV-64a
// of everything after it — is recomputed.
func asVersion1(b []byte) []byte {
	le := binary.LittleEndian
	const hdr, rec = 8 * 8, 15 * 8
	out := append([]byte(nil), b[:hdr]...)
	le.PutUint64(out[8:], 1)
	for r := b[hdr:]; len(r) >= rec; r = r[rec:] {
		out = append(out, r[:16]...)
		out = append(out, r[16:24]...)
		out = append(out, r[16:rec]...)
	}
	h := fnv.New64a()
	h.Write(out[24:])
	le.PutUint64(out[16:], h.Sum64())
	return out
}

// TestSidecarLossAndCorruptionAtOpen: segments answer queries identically
// whether their index sidecar is present, deleted, garbage, or one an older
// build wrote at index version 1 — and that last one is rewritten at the
// current version, byte for byte what ingest wrote.
func TestSidecarLossAndCorruptionAtOpen(t *testing.T) {
	root := t.TempDir()
	data := sdetSpill(t, 5)
	base, _ := readAllEvents(t, data)
	lo, hi := base[0].Time, base[len(base)-1].Time
	s := openStore(t, Options{Root: root, SegmentSpan: (hi - lo) / 4})
	ingestBytes(t, s, "acme", data)
	s.Close()

	sidecars, _ := filepath.Glob(filepath.Join(root, "acme", "*.kix"))
	if len(sidecars) < 3 {
		t.Fatalf("want >= 3 sidecars, got %d", len(sidecars))
	}
	if err := os.Remove(sidecars[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sidecars[1], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	current, err := os.ReadFile(sidecars[2])
	if err != nil {
		t.Fatal(err)
	}
	old := asVersion1(current)
	if _, err := stream.DecodeIndex(old); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("a version-1 sidecar decodes with %v, want the version refused", err)
	}
	if err := os.WriteFile(sidecars[2], old, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, Options{Root: root, SegmentSpan: (hi - lo) / 4})
	for _, p := range paramMatrix("acme", base) {
		if p.Agg != "events" {
			continue
		}
		want := MatchStream(base, p)
		got, err := s2.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEvents(got.Events, want) {
			t.Errorf("%v: results differ after sidecar damage", p.values().Encode())
		}
	}
	upgraded, err := os.ReadFile(sidecars[2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.DecodeIndex(upgraded); err != nil || !bytes.Equal(upgraded, current) {
		t.Errorf("the version-1 sidecar was not rewritten as ingest wrote it (%d bytes, want %d): %v",
			len(upgraded), len(current), err)
	}
}

// TestMultiTenantIsolation: tenants never see each other's events.
func TestMultiTenantIsolation(t *testing.T) {
	dataA := sdetSmall(t, 20)
	dataB := sdetSmall(t, 21)
	baseA, _ := readAllEvents(t, dataA)
	baseB, _ := readAllEvents(t, dataB)
	s := openStore(t, Options{})
	ingestBytes(t, s, "alpha", dataA)
	ingestBytes(t, s, "beta", dataB)

	ra, err := s.Query(Params{Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.Query(Params{Tenant: "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if !sameEvents(ra.Events, baseA) || !sameEvents(rb.Events, baseB) {
		t.Fatal("tenant namespaces leaked into each other")
	}
	if _, err := s.Query(Params{Tenant: "nobody"}); !isNoTenant(err) {
		t.Fatalf("query against missing tenant: %v", err)
	}
}

// TestSwapRejectsStaleRemove: swap must fail a commit whose removeIDs are
// no longer in the manifest — a stale plan from a racing mutation —
// leaving the catalog untouched. Defense in depth behind the maintenance
// mutex.
func TestSwapRejectsStaleRemove(t *testing.T) {
	data := sdetSmall(t, 8)
	base, _ := readAllEvents(t, data)
	s := openStore(t, Options{})
	ingestBytes(t, s, "x", data)

	tn := s.getTenant("x")
	tn.mu.Lock()
	err := tn.swap(nil, []uint64{99999})
	tn.mu.Unlock()
	if err == nil {
		t.Fatal("swap accepted a removeID that is not in the manifest")
	}

	// Mixed plans fail whole: one live ID plus one stale ID commits nothing.
	tn.mu.Lock()
	live := tn.man.Segments[0].ID
	err = tn.swap(nil, []uint64{live, 99999})
	before := len(tn.man.Segments)
	tn.mu.Unlock()
	if err == nil {
		t.Fatal("swap accepted a plan with a stale removeID")
	}
	tn.mu.Lock()
	after := len(tn.man.Segments)
	tn.mu.Unlock()
	if before != after {
		t.Fatalf("failed swap mutated the catalog: %d -> %d segments", before, after)
	}
	r, err := s.Query(Params{Tenant: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if !sameEvents(r.Events, base) {
		t.Fatal("failed swap changed query results")
	}
}

// TestParseParamsErrors: the 400 path.
func TestParseParamsErrors(t *testing.T) {
	bad := []string{
		"",                                  // no tenant
		"tenant=../evil",                    // path escape
		"tenant=a&from=x",                   // bad number
		"tenant=a&from=10&to=5",             // empty range
		"tenant=a&minor=3",                  // minor without major
		"tenant=a&major=nosuch",             // unknown major
		"tenant=a&agg=nosuch",               // unknown agg
		"tenant=a&agg=timebreak",            // timebreak without pid
		"tenant=a&limit=-1",                 // bad limit
		"tenant=" + strings.Repeat("x", 80), // too long
	}
	for _, q := range bad {
		v, _ := url.ParseQuery(q)
		if _, err := ParseParams(v); err == nil {
			t.Errorf("ParseParams(%q) accepted", q)
		}
	}
	v, _ := url.ParseQuery("tenant=a&from=5&to=9&major=sched&minor=1&pid=3&agg=events&limit=10&noprune=1")
	p, err := ParseParams(v)
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasMajor || !p.HasMinor || !p.HasPid || !p.NoPrune || p.From != 5 || p.To != 9 || p.Limit != 10 {
		t.Fatalf("round trip lost fields: %+v", p)
	}
}
