package daemon

import (
	"bytes"
	"context"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"k42trace/internal/analysis"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/faultinject"
	"k42trace/internal/shm"
	"k42trace/internal/stream"
)

// The cross-process tests: real client processes, each a spawned shmlog
// (or batchHang, the one client shmlog has no mode for), log into a segment
// this process owns and drains, and some of them are killed with SIGKILL at
// the worst moment — after reserving buffer space, before committing it.
// No handler runs and no Detach: the agent's pid-liveness reap and the
// buffer's commit count are all that is left to clean up.

// batchHang is a client that dies holding an open batch: it attaches to
// -seg, opens a -words extent on CPU slot 0, writes -n two-word test
// events into it, and blocks with the batch open — nothing committed, the
// in-flight count raised — until it is killed.
func batchHang(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	p := newProc("batchhang", stdout, stderr)
	seg := p.fs.String("seg", "", "segment file to attach to")
	words := p.fs.Int("words", 0, "words of the batch extent")
	n := p.fs.Int("n", 0, "two-word test events to write into it")
	if code, ok := p.parse(args); !ok {
		return code
	}
	cl, err := shm.Attach(*seg)
	if err != nil {
		return p.fail(err)
	}
	var b core.Batch
	if !cl.CPU(0).OpenBatch(&b, event.MajorTest, *words) {
		return p.fail(errors.New("batch open failed"))
	}
	written := 0
	for i := 0; i < *n; i++ {
		if b.Log1(event.MajorTest, 9, uint64(i)) {
			written++
		}
	}
	p.say("hung with a %d-word batch open, %d words written", *words, 2*written)
	<-ctx.Done() // the way out is the kill
	return 1
}

// startAgent creates a segment of geometry g and drains it into a buffer
// until Stop; wait returns the capture's stats once it has.
func startAgent(t *testing.T, g shm.Geometry) (ag *shm.Agent, buf *bytes.Buffer, wait func() (stream.CaptureStats, error)) {
	t.Helper()
	ag, err := shm.Create(filepath.Join(t.TempDir(), "seg.shm"), g)
	if err != nil {
		t.Fatal(err)
	}
	buf = new(bytes.Buffer)
	return ag, buf, stream.CaptureAsync(ag, buf)
}

// stopAgent stops and closes the agent and returns its capture's stats.
func stopAgent(t *testing.T, ag *shm.Agent, wait func() (stream.CaptureStats, error)) stream.CaptureStats {
	t.Helper()
	ag.Stop()
	st, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := ag.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// logClient runs a shmlog child to completion and checks that it logged n
// events.
func logClient(t *testing.T, n int, args ...string) {
	t.Helper()
	r := spawn(t, "shmlog", append(args, "-n", strconv.Itoa(n))...)
	r.exits(0)
	r.expect(`logged ` + strconv.Itoa(n) + ` events`)
}

// kill delivers SIGKILL and waits for the child to be gone.
func (r *running) kill() {
	r.t.Helper()
	if err := r.child.Process.Kill(); err != nil {
		r.t.Fatal(err)
	}
	r.exits(-1)
}

func decodeAll(t *testing.T, data []byte) ([]event.Event, core.DecodeStats) {
	t.Helper()
	rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	evs, ds, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return evs, ds
}

func countTest(evs []event.Event) int {
	n := 0
	for i := range evs {
		if evs[i].Major() == event.MajorTest {
			n++
		}
	}
	return n
}

// TestCrossProcessGarbleDetection is the end-to-end §3.1 failure: a real
// child process reserves event space in the shared segment and is
// SIGKILLed before logging it. The agent must write the dead client off
// by pid liveness, seal the garbled buffer with its short commit count,
// flag the block anomalous on write-out, and the readers must skip
// exactly the dead reservation's words — exact loss accounting, nothing
// more quarantined.
func TestCrossProcessGarbleDetection(t *testing.T) {
	defer settles(t)()
	ag, buf, wait := startAgent(t, shm.Geometry{CPUs: 1, BufWords: 256, NumBufs: 4, MaxClients: 4})

	hang := spawn(t, "shmlog", "-seg", ag.Path(), "-cpu", "0", "-hang", "-payload", "3")
	holeWords := atoi(t, hang.expect(`hung with (\d+) uncommitted words`)[1])
	if holeWords != 4 {
		t.Fatalf("hang child reserved %d words, want 4", holeWords)
	}
	hang.kill()
	eventually(t, "dead client reaped", func() bool { return ag.Reaped() >= 1 })

	// A healthy client then logs straight past the corpse's hole: the ring
	// must keep flowing, with only the commit-count mismatch as evidence.
	logClient(t, 400, "-seg", ag.Path(), "-cpu", "0", "-pid", "7")

	if st := stopAgent(t, ag, wait); st.Anomalies != 1 {
		t.Errorf("captured %d anomalous blocks, want exactly 1", st.Anomalies)
	}

	evs, ds := decodeAll(t, buf.Bytes())
	if ds.SkippedWords != holeWords {
		t.Errorf("decoder skipped %d words, want the hole's %d", ds.SkippedWords, holeWords)
	}
	if got := countTest(evs); got != 400 {
		t.Errorf("recovered %d test events, logged 400", got)
	}

	// The salvager agrees, to the word: nothing whole-block quarantined,
	// no sequence gaps, exactly the hole skipped within the bad block.
	_, rep, err := stream.Salvage(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksSkipped != 0 || rep.LostBlocks != 0 || rep.DupBlocks != 0 {
		t.Errorf("salvage quarantined/lost blocks on a kill-only trace: %+v", rep)
	}
	if rep.Stats.SkippedWords != holeWords {
		t.Errorf("salvage skipped %d words, want %d", rep.Stats.SkippedWords, holeWords)
	}
}

// TestCrossProcessMonotonicityAndConservation: two real processes hammer
// every CPU slot of one segment concurrently. Per-CPU timestamps must
// never decrease — the property the in-CAS-loop timestamp re-read buys,
// now across address spaces — and every reserved word must be accounted
// for: events + fillers + skipped == block words exactly.
func TestCrossProcessMonotonicityAndConservation(t *testing.T) {
	defer settles(t)()
	ag, buf, wait := startAgent(t, shm.Geometry{CPUs: 2, BufWords: 512, NumBufs: 4, MaxClients: 4})
	const perChild = 4000

	var kids []*running
	for _, pid := range []string{"1", "2"} {
		kids = append(kids, spawn(t, "shmlog", "-seg", ag.Path(), "-pid", pid, "-n", strconv.Itoa(perChild)))
	}
	for _, c := range kids {
		c.exits(0)
		c.expect(`logged \d+ events`)
	}
	stopAgent(t, ag, wait)

	evs, ds := decodeAll(t, buf.Bytes())
	if ds.Garbled() {
		t.Errorf("clean run decoded garbled: %+v", ds)
	}
	eventWords := 0
	last := map[int]uint64{}
	for i := range evs {
		ev := &evs[i]
		if ev.Time < last[ev.CPU] {
			t.Fatalf("cpu %d timestamp regressed: %d after %d", ev.CPU, ev.Time, last[ev.CPU])
		}
		last[ev.CPU] = ev.Time
		eventWords += 1 + len(ev.Data)
	}
	if test := countTest(evs); test != 2*perChild {
		t.Errorf("recovered %d test events, logged %d", test, 2*perChild)
	}

	blockWords := totalBlockWords(t, buf.Bytes())
	if got := eventWords + ds.FillerWords + ds.SkippedWords; got != blockWords {
		t.Errorf("word conservation: events %d + fillers %d + skipped %d = %d, blocks hold %d",
			eventWords, ds.FillerWords, ds.SkippedWords, got, blockWords)
	}
}

// totalBlockWords sums the data words of every block in a trace file.
func totalBlockWords(t *testing.T, data []byte) int {
	t.Helper()
	bs, err := stream.NewBlockStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		bh, _, err := bs.Next(nil)
		if err == io.EOF {
			return total
		}
		if err != nil {
			t.Fatal(err)
		}
		total += bh.NWords
	}
}

// perCPUCounter mirrors the segment's deterministic clock for the
// in-process replica: an independent tick counter per CPU slot.
type perCPUCounter struct{ ticks []uint64 }

func (c *perCPUCounter) Now(cpu int) uint64 { return atomic.AddUint64(&c.ticks[cpu], 1) }
func (c *perCPUCounter) Hz() uint64         { return 1e9 }

// TestCrossProcessAnalysisParity is the acceptance bar for the shared
// memory path: the same synthetic workload run (a) by two shmlog
// processes through Attach + the ktraced-style drain and (b) in-process
// through the core Tracer must produce traces whose per-CPU event
// streams — and therefore whose analysis Overview — are identical.
func TestCrossProcessAnalysisParity(t *testing.T) {
	defer settles(t)()
	const (
		cpus, bufWords, numBufs = 2, 256, 4
		rounds                  = 300
	)
	pids := []uint64{101, 202}

	// (a) cross-process: one child per CPU slot, deterministic segment
	// clock, drained by the agent.
	ag, shmBuf, wait := startAgent(t, shm.Geometry{
		CPUs: cpus, BufWords: bufWords, NumBufs: numBufs,
		MaxClients: 4, DeterministicClock: true,
	})
	var kids []*running
	for cpu := 0; cpu < cpus; cpu++ {
		kids = append(kids, spawn(t, "shmlog", "-seg", ag.Path(), "-workload", "-cpu", strconv.Itoa(cpu),
			"-pid", strconv.FormatUint(pids[cpu], 10), "-n", strconv.Itoa(rounds)))
	}
	for _, c := range kids {
		c.exits(0)
		c.expect(`logged \d+ events`)
	}
	stopAgent(t, ag, wait)

	// (b) in-process replica: same geometry, same per-CPU deterministic
	// clock, same workload calls.
	tr := core.MustNew(core.Config{
		CPUs: cpus, BufWords: bufWords, NumBufs: numBufs,
		Mode: core.Stream, ZeroFill: true,
		Clock: &perCPUCounter{ticks: make([]uint64, cpus)},
	})
	tr.EnableAll()
	var inBuf bytes.Buffer
	inWait := stream.CaptureAsync(tr, &inBuf)
	for cpu := 0; cpu < cpus; cpu++ {
		faultinject.SyntheticWorkload(tr.CPU(cpu), pids[cpu], rounds)
	}
	tr.Stop()
	if _, err := inWait(); err != nil {
		t.Fatal(err)
	}

	shmEvs, shmDs := decodeAll(t, shmBuf.Bytes())
	inEvs, inDs := decodeAll(t, inBuf.Bytes())
	if shmDs.Garbled() || inDs.Garbled() {
		t.Fatalf("parity runs garbled: shm %+v in-process %+v", shmDs, inDs)
	}

	// Per-CPU streams must match event for event, word for word.
	for cpu := 0; cpu < cpus; cpu++ {
		a, b := cpuStream(shmEvs, cpu), cpuStream(inEvs, cpu)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("cpu %d: cross-process stream (%d events) differs from in-process (%d events)",
				cpu, len(a), len(b))
		}
	}

	// And so must the analysis built on them.
	shmOv := overviewString(shmEvs)
	inOv := overviewString(inEvs)
	if shmOv != inOv {
		t.Errorf("Overview parity broken:\ncross-process:\n%s\nin-process:\n%s", shmOv, inOv)
	}
	if len(shmOv) == 0 || !strings.Contains(shmOv, "101") {
		t.Errorf("overview vacuous:\n%s", shmOv)
	}
}

func cpuStream(evs []event.Event, cpu int) []event.Event {
	var out []event.Event
	for i := range evs {
		if evs[i].CPU == cpu {
			out = append(out, evs[i])
		}
	}
	return out
}

func overviewString(evs []event.Event) string {
	var b strings.Builder
	analysis.FormatOverview(&b, analysis.Build(evs, 1e9, event.Default).Overview())
	return b.String()
}

// TestCrossProcessBatchKill is the batched fast path's worst case made
// real: a child opens a multi-event batch, appends some events, and dies
// with the batch still open. The single batch reservation means the
// commit shortfall covers the whole extent — written events included —
// so the agent must flag the block anomalous and the decoder must
// recover the written events while skipping exactly the unwritten tail.
func TestCrossProcessBatchKill(t *testing.T) {
	defer settles(t)()
	const (
		batchWords  = 20
		childEvents = 3 // 6 words written, 14-word zero tail
	)
	ag, buf, wait := startAgent(t, shm.Geometry{CPUs: 1, BufWords: 256, NumBufs: 4, MaxClients: 4})

	hang := spawn(t, "batchhang", "-seg", ag.Path(),
		"-words", strconv.Itoa(batchWords), "-n", strconv.Itoa(childEvents))
	m := hang.expect(`hung with a (\d+)-word batch open, (\d+) words written`)
	extent, written := atoi(t, m[1]), atoi(t, m[2])
	if extent != batchWords || written != 2*childEvents {
		t.Fatalf("child batch extent=%d written=%d, want %d/%d",
			extent, written, batchWords, 2*childEvents)
	}
	hang.kill()
	eventually(t, "dead client reaped", func() bool { return ag.Reaped() >= 1 })

	// A healthy client logs past the corpse, filling and sealing the
	// buffer that holds the abandoned batch.
	logClient(t, 400, "-seg", ag.Path(), "-cpu", "0", "-pid", "7")

	if st := stopAgent(t, ag, wait); st.Anomalies != 1 {
		t.Errorf("captured %d anomalous blocks, want exactly 1", st.Anomalies)
	}

	evs, ds := decodeAll(t, buf.Bytes())
	// Exact loss accounting: only the batch's unwritten tail is skipped.
	if ds.SkippedWords != extent-written {
		t.Errorf("decoder skipped %d words, want the batch tail's %d",
			ds.SkippedWords, extent-written)
	}
	// The child's written events survive alongside the healthy client's.
	if got, want := countTest(evs), 400+childEvents; got != want {
		t.Errorf("recovered %d test events, want %d (400 logged + %d from the dead batch)",
			got, want, childEvents)
	}
}
