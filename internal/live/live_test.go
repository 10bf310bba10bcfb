package live

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"k42trace/internal/analysis"
	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/ksim"
	"k42trace/internal/relay"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// waitFor polls cond until it holds or the deadline passes. A producer's
// send returning only means its bytes reached the socket; the server may
// accept and process them later, so server-side state must be awaited.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runSDETProducer runs one traced SDET kernel streaming to addr and
// reports any relay error. Each seed yields a distinct deterministic
// workload.
func runSDETProducer(t *testing.T, addr string, seed int64) {
	t.Helper()
	k, tr, err := ksim.NewTracedKernel(
		ksim.Config{CPUs: 2, Tuned: true, Seed: seed, SamplePeriod: 40_000, HWCSamplePeriod: 40_000},
		core.Config{BufWords: 2048, NumBufs: 8, Mode: core.Stream})
	if err != nil {
		t.Error(err)
		return
	}
	tr.EnableAll()
	done := make(chan error, 1)
	go func() {
		_, err := relay.SendThrough(tr, addr, nil)
		done <- err
	}()
	_, err = k.Run(sdet.Workload(2, sdet.Params{ScriptsPerCPU: 2, CommandsPerScript: 3, Seed: seed}))
	tr.Stop()
	if err != nil {
		t.Error(err)
	}
	if err := <-done; err != nil {
		t.Errorf("producer seed %d: %v", seed, err)
	}
}

// TestLiveMatchesOfflineSpill is the acceptance criterion: a 4-producer
// live session's cumulative overview must exactly match the offline
// Overview of the drained spill file — same pids, names, event counts,
// and time breakdowns, row for row.
func TestLiveMatchesOfflineSpill(t *testing.T) {
	var spill bytes.Buffer
	c := NewCollector(Options{
		Window:     250 * time.Millisecond,
		MaxWindows: 8,
		CPUSlots:   32,
		Spill:      &spill,
	})
	srv, err := relay.ListenConns("127.0.0.1:0", c.Handler())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			runSDETProducer(t, srv.Addr(), seed)
		}(int64(i + 1))
	}
	wg.Wait()
	waitFor(t, "all 4 producers to finish", func() bool {
		s := c.Snapshot()
		if len(s.Producers) != 4 {
			return false
		}
		for _, p := range s.Producers {
			if p.Connected {
				return false
			}
		}
		return true
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	live := c.Snapshot().Overview
	if len(live) == 0 {
		t.Fatal("live overview is empty")
	}

	rd, err := stream.NewReader(bytes.NewReader(spill.Bytes()), int64(spill.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs, dst, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if dst.Garbled() {
		t.Fatal("spill is garbled")
	}
	// The producers' CPU slices keep their blocks apart, so the salvager —
	// the path ktrace check -salvage and every store ingest take — reads
	// the spill as the strict reader does: no block is taken for another
	// producer's duplicate.
	salvaged, rep, err := stream.Salvage(bytes.NewReader(spill.Bytes()), int64(spill.Len()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(salvaged, evs) || rep.DupBlocks != 0 || !rep.Clean() {
		t.Errorf("salvage of the spill: %d events against ReadAll's %d, %d duplicate blocks\n%s",
			len(salvaged), len(evs), rep.DupBlocks, rep)
	}
	offline := analysis.Build(evs, rd.Meta().ClockHz, event.Default).Overview()
	if !reflect.DeepEqual(live, offline) {
		t.Fatalf("live overview != offline overview of spill\nlive:\n%s\noffline:\n%s",
			overviewText(live), overviewText(offline))
	}

	s := c.Snapshot()
	if len(s.Producers) != 4 {
		t.Fatalf("snapshot has %d producers, want 4", len(s.Producers))
	}
	var blocks, events uint64
	bases := map[int]bool{}
	for _, p := range s.Producers {
		if p.Connected {
			t.Errorf("producer %d still connected after drain", p.ID)
		}
		if p.CPUs != 2 || bases[p.CPUBase] {
			t.Errorf("producer %d has bad CPU slice base=%d n=%d", p.ID, p.CPUBase, p.CPUs)
		}
		bases[p.CPUBase] = true
		blocks += p.Blocks
		events += p.Events
	}
	if int(blocks) != rd.NumBlocks() {
		t.Errorf("producers report %d blocks, spill holds %d", blocks, rd.NumBlocks())
	}
	if events != s.Stats.Events {
		t.Errorf("producers report %d events, engine fed %d", events, s.Stats.Events)
	}
	if uint64(len(evs)) != s.Stats.Events {
		t.Errorf("spill decodes to %d events, engine fed %d", len(evs), s.Stats.Events)
	}
}

// TestOneProducerSpillIsTheStreamSent: with CPUSlots equal to its one
// producer's CPU count, the collector's spill is byte for byte the stream
// that producer sent — the collected bytes are that trace file.
func TestOneProducerSpillIsTheStreamSent(t *testing.T) {
	var spill bytes.Buffer
	c := NewCollector(Options{CPUSlots: 2, Spill: &spill})
	srv, err := relay.ListenConns("127.0.0.1:0", c.Handler())
	if err != nil {
		t.Fatal(err)
	}
	tr := core.MustNew(core.Config{
		CPUs: 2, BufWords: 64, NumBufs: 4,
		Mode: core.Stream, Clock: clock.NewManual(1),
	})
	tr.EnableAll()
	var sent bytes.Buffer
	done := make(chan error, 1)
	go func() {
		_, err := relay.SendThrough(tr, srv.Addr(), func(w io.Writer) io.Writer { return io.MultiWriter(&sent, w) })
		done <- err
	}()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.CPU(i%2).Log1(event.MajorTest, 1, uint64(i))
	}
	tr.Stop()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the producer to finish", func() bool {
		s := c.Snapshot()
		return len(s.Producers) == 1 && !s.Producers[0].Connected
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spill.Bytes(), sent.Bytes()) {
		t.Fatalf("spill (%d bytes) is not the %d bytes the producer sent", spill.Len(), sent.Len())
	}
	rd, err := stream.NewReader(bytes.NewReader(spill.Bytes()), int64(spill.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs, dst, err := rd.ReadAll()
	if err != nil || dst.Garbled() {
		t.Fatalf("spill reads with %v, garbled %v", err, dst.Garbled())
	}
	logged := 0
	for _, e := range evs {
		if e.Major() == event.MajorTest {
			logged++
		}
	}
	if logged != n {
		t.Fatalf("spill holds %d of the %d events logged", logged, n)
	}
}

// newLoggedTracer returns a stopped tracer whose ring holds n MajorTest
// events on one CPU, ready to be drained by a sender.
func newLoggedTracer(t *testing.T, n int) *core.Tracer {
	t.Helper()
	tr := core.MustNew(core.Config{
		CPUs: 2, BufWords: 64, NumBufs: 8,
		Mode: core.Stream, Clock: clock.NewManual(1),
	})
	tr.EnableAll()
	for i := 0; i < n; i++ {
		tr.CPU(0).Log1(event.MajorTest, 1, uint64(i))
	}
	tr.Stop()
	return tr
}

// TestWedgedApplyLosesNoBlock: an apply that stalls holds its producer at
// the socket; it does not hang up on it. The spill's first block write is
// wedged for 600 ms while a reliable sender logs 20 000 events in 64-word
// blocks, so the backlog fills the socket and then the sender's ring. Once
// the wedge lets go, every block the sender's link
// counted delivered is in the spill, and nobody was disconnected. A
// collector that hung up on a producer waiting this long lost the blocks
// its socket held when it did: the link had counted them delivered, and
// the spill never saw them.
func TestWedgedApplyLosesNoBlock(t *testing.T) {
	var spill bytes.Buffer
	wedge := &wedgedSpill{w: &spill, release: make(chan struct{}), wedged: make(chan struct{})}
	c := NewCollector(Options{CPUSlots: 8, Spill: wedge})
	srv, err := relay.ListenConns("127.0.0.1:0", c.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		<-wedge.wedged
		time.Sleep(600 * time.Millisecond)
		close(wedge.release)
	}()

	tr := core.MustNew(core.Config{
		CPUs: 1, BufWords: 64, NumBufs: 8,
		Mode: core.Stream, Clock: clock.NewManual(1),
	})
	tr.EnableAll()
	type result struct {
		st  relay.ReliableStats
		err error
	}
	sent := make(chan result, 1)
	go func() {
		st, err := relay.SendReliable(tr, srv.Addr(), relay.ReliableOptions{})
		sent <- result{st, err}
	}()
	const n = 20_000
	for i := 0; i < n; i++ {
		tr.CPU(0).Log1(event.MajorTest, 1, uint64(i))
	}
	tr.Stop()
	var r result
	select {
	case r = <-sent:
	case <-time.After(10 * time.Second):
		t.Fatal("the sender never finished")
	}
	if r.err != nil || r.st.Dropped != 0 || r.st.Retries != 0 || r.st.Dials != 1 {
		t.Fatalf("sender: %d blocks, %d dials, %d retries, %d dropped, %v",
			r.st.Blocks, r.st.Dials, r.st.Retries, r.st.Dropped, r.err)
	}
	if err := srv.CloseNow(); err != nil {
		t.Errorf("CloseNow: %v", err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	rd, err := stream.NewReader(bytes.NewReader(spill.Bytes()), int64(spill.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, e := range evs {
		if e.Major() == event.MajorTest {
			logged++
		}
	}
	if rd.NumBlocks() != r.st.Blocks || logged != n {
		t.Errorf("the link delivered %d blocks of %d events, the spill holds %d blocks of %d",
			r.st.Blocks, n, rd.NumBlocks(), logged)
	}
	if d := c.Snapshot().Disconnects; len(d) != 0 {
		t.Errorf("disconnects %v, want none", d)
	}
}

// TestDrainReadsAFinishedSender: a sender that has written its blocks and
// exited loses none of them to a shutdown that follows at once. The
// collector's connection is wedged on its first block (a spill whose first
// block write waits) while the sender finishes, so most of the stream is
// still in the socket when CloseNow begins, and the wedge
// is let go only once CloseNow has dealt with the connection — once the
// listener, which it closes after, refuses a dial. A CloseNow that closed
// the connection lost what the socket held.
func TestDrainReadsAFinishedSender(t *testing.T) {
	release := make(chan struct{})
	var spill bytes.Buffer
	c := NewCollector(Options{
		CPUSlots: 8,
		Spill:    &wedgedSpill{w: &spill, release: release},
	})
	srv, err := relay.ListenConns("127.0.0.1:0", c.Handler())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	// Sixteen 8 KiB blocks: more than the connection takes in before it
	// wedges (one block and its 64 KiB read buffer).
	tr := core.MustNew(core.Config{
		CPUs: 1, BufWords: 1024, NumBufs: 4,
		Mode: core.Stream, Clock: clock.NewManual(1),
	})
	tr.EnableAll()
	type result struct {
		st  stream.CaptureStats
		err error
	}
	sent := make(chan result, 1)
	go func() {
		st, err := relay.SendThrough(tr, addr, nil)
		sent <- result{st, err}
	}()
	for i := 0; i < 16*511; i++ {
		tr.CPU(0).Log1(event.MajorTest, 1, uint64(i))
	}
	tr.Stop()
	var r result
	select {
	case r = <-sent:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("the sender never finished: the socket does not hold the stream")
	}
	if r.err != nil || r.st.Blocks < 16 {
		t.Fatalf("sender: %d blocks, %v", r.st.Blocks, r.err)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.CloseNow() }()
	waitFor(t, "CloseNow to close the listener", func() bool {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
		}
		return err != nil
	})
	close(release)
	if err := <-closed; err != nil {
		t.Errorf("CloseNow: %v", err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	rd, err := stream.NewReader(bytes.NewReader(spill.Bytes()), int64(spill.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumBlocks() != r.st.Blocks {
		t.Errorf("the sender wrote %d blocks and exited, the spill holds %d", r.st.Blocks, rd.NumBlocks())
	}
	if d := c.Snapshot().Disconnects; len(d) != 0 {
		t.Errorf("disconnects %v, want none", d)
	}
}

// wedgedSpill is a spill that holds its first block write until release is
// closed. Its first Write is the file header, written when the first
// producer registers; the collector then writes every block under its lock,
// so the wedge holds that too. A non-nil wedged is closed as the wedge
// begins.
type wedgedSpill struct {
	w       io.Writer
	release chan struct{}
	wedged  chan struct{}
	writes  int
}

func (s *wedgedSpill) Write(p []byte) (int, error) {
	if s.writes++; s.writes == 2 {
		if s.wedged != nil {
			close(s.wedged)
		}
		<-s.release
	}
	return s.w.Write(p)
}

// TestDrainCutsAnOpenSender: a producer that keeps its connection open past
// the drain grace is cut there, and counted as such; what it sent before is
// kept.
func TestDrainCutsAnOpenSender(t *testing.T) {
	var spill bytes.Buffer
	c := NewCollector(Options{CPUSlots: 8, Spill: &spill})
	srv, err := relay.ListenConns("127.0.0.1:0", c.Handler())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wr, err := stream.NewWriter(conn, stream.Meta{BufWords: 64, CPUs: 1, ClockHz: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	words := []uint64{uint64(event.MakeHeader(1, 2, event.MajorControl, event.CtrlClockAnchor)), 1}
	if err := wr.WriteBlock(stream.BlockHeader{NWords: len(words), Committed: uint64(len(words))}, words); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the block to be taken in", func() bool {
		s := c.Snapshot()
		return len(s.Producers) == 1 && s.Producers[0].Blocks == 1
	})
	start := time.Now()
	if err := srv.CloseNow(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("CloseNow over a producer that stays connected: %v, want a deadline error", err)
	}
	if waited := time.Since(start); waited < relay.DrainGrace {
		t.Errorf("CloseNow returned after %v, before the %v grace", waited, relay.DrainGrace)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if d := c.Snapshot().Disconnects; d["drain-cut"] != 1 || len(d) != 1 {
		t.Errorf("disconnects %v, want one drain-cut", d)
	}
	if rd, err := stream.NewReader(bytes.NewReader(spill.Bytes()), int64(spill.Len())); err != nil || rd.NumBlocks() != 1 {
		t.Errorf("spill of a cut producer: %v", err)
	}
}

// TestAdmissionControl covers the deterministic admission paths:
// mismatched metadata, CPU-slot exhaustion, the reuse of a drained
// producer's slots, and draining.
func TestAdmissionControl(t *testing.T) {
	c := NewCollector(Options{CPUSlots: 3})
	srv, err := relay.ListenConns("127.0.0.1:0", c.Handler())
	if err != nil {
		t.Fatal(err)
	}

	// The producer side can't see a rejection (its bytes land in the
	// socket buffer before the server hangs up), so each step is verified
	// against the collector's own counters.
	send := func(addr string, cpus, bufWords int) {
		tr := core.MustNew(core.Config{
			CPUs: cpus, BufWords: bufWords, NumBufs: 4,
			Mode: core.Stream, Clock: clock.NewManual(1),
		})
		tr.EnableAll()
		tr.CPU(0).Log1(event.MajorTest, 1, 1)
		tr.Stop()
		relay.SendThrough(tr, addr, nil)
	}

	send(srv.Addr(), 2, 64)
	waitFor(t, "first producer admitted", func() bool {
		s := c.Snapshot()
		return len(s.Producers) == 1 && !s.Producers[0].Connected
	})
	// Different BufWords: the session is already fixed at 64.
	send(srv.Addr(), 2, 128)
	waitFor(t, "meta-mismatch rejection", func() bool {
		return c.Snapshot().Disconnects["meta-mismatch"] == 1
	})
	// Matching metadata, but 3 CPUs fit neither the 1 fresh slot left nor
	// the 2-slot slice the first producer gives back.
	send(srv.Addr(), 3, 64)
	waitFor(t, "cpu-slots rejection", func() bool {
		return c.Snapshot().Disconnects["cpu-slots"] == 1
	})
	if n := len(c.Snapshot().Producers); n != 1 {
		t.Fatalf("%d producers admitted, want 1", n)
	}
	// Once the first producer's handler has given its slice back, a 2-CPU
	// producer takes it: fresh slots first, then a drained producer's.
	waitFor(t, "the first producer's slice on the free list", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.free) == 1
	})
	send(srv.Addr(), 2, 64)
	waitFor(t, "second producer admitted onto the given-back slice", func() bool {
		s := c.Snapshot()
		return len(s.Producers) == 2 && !s.Producers[1].Connected
	})
	if s := c.Snapshot(); s.Producers[1].CPUBase != s.Producers[0].CPUBase || s.Disconnects["cpu-slots"] != 1 {
		t.Fatalf("second producer on CPU base %d, first on %d, %d cpu-slots rejections; want the same base and 1",
			s.Producers[1].CPUBase, s.Producers[0].CPUBase, s.Disconnects["cpu-slots"])
	}
	srv.Close()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	// After drain every new producer is refused.
	srv2, err := relay.ListenConns("127.0.0.1:0", c.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	send(srv2.Addr(), 2, 64)
	waitFor(t, "draining rejection", func() bool {
		return c.Snapshot().Disconnects["draining"] == 1
	})
}

// TestHTTPEndpoints drives the daemon surface end to end in-process:
// /healthz, /metrics exposition, and the JSON snapshots.
func TestHTTPEndpoints(t *testing.T) {
	c := NewCollector(Options{CPUSlots: 8, Window: time.Second})
	srv, err := relay.ListenConns("127.0.0.1:0", c.Handler())
	if err != nil {
		t.Fatal(err)
	}
	tr := newLoggedTracer(t, 100)
	if _, err := relay.SendThrough(tr, srv.Addr(), nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "producer to finish", func() bool {
		s := c.Snapshot()
		return len(s.Producers) == 1 && !s.Producers[0].Connected &&
			s.Producers[0].Blocks > 0 && s.Stats.Blocks == s.Producers[0].Blocks
	})
	srv.Close()

	web := httptest.NewServer(c.Mux())
	defer web.Close()
	get := func(path string) string {
		resp, err := web.Client().Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if got := get("/healthz"); got != "ok\n" {
		t.Errorf("healthz: %q", got)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		`tracecolld_blocks_received_total{producer="1"}`,
		`tracecolld_events_received_total{producer="1"}`,
		"tracecolld_events_total ",
		"tracecolld_producers_connected 0",
		"tracecolld_windows_live",
		"# TYPE tracecolld_blocks_received_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	overview := get("/live/overview")
	for _, want := range []string{`"producers"`, `"overview"`, `"clock_hz"`} {
		if !strings.Contains(overview, want) {
			t.Errorf("overview JSON missing %s", want)
		}
	}
	if windows := get("/live/windows"); !strings.Contains(windows, `"index"`) {
		t.Errorf("windows JSON has no window: %s", windows)
	}
}

// overviewText is the overview table FormatOverview writes.
func overviewText(rows []analysis.ProcSummary) string {
	var b strings.Builder
	analysis.FormatOverview(&b, rows)
	return b.String()
}
