package faultinject_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"k42trace/internal/analysis"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/faultinject"
	"k42trace/internal/shm"
	"k42trace/internal/stream"
)

// TestMain makes this test binary double as the fault child: re-exec'd
// with the child environment set, it attaches to the shared segment and
// runs its mode instead of the tests.
func TestMain(m *testing.M) {
	faultinject.RunChildIfRequested()
	os.Exit(m.Run())
}

func startAgent(t *testing.T, g shm.Geometry) (*shm.Agent, *bytes.Buffer, func() (stream.CaptureStats, error)) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.shm")
	ag, err := shm.Create(path, g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	wait := stream.CaptureAsync(ag, &buf)
	return ag, &buf, wait
}

func child(t *testing.T, spec faultinject.ChildSpec) *faultinject.Child {
	t.Helper()
	c, err := faultinject.StartChild(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Expect("attached"); err != nil {
		t.Fatal(err)
	}
	return c
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

// TestCrossProcessGarbleDetection is the end-to-end §3.1 failure: a real
// child process reserves event space in the shared segment and is
// SIGKILLed before logging it. The daemon must write the dead client off
// by pid liveness, seal the garbled buffer with its short commit count,
// flag the block anomalous on write-out, and the readers must skip
// exactly the dead reservation's words — exact loss accounting, nothing
// more quarantined.
func TestCrossProcessGarbleDetection(t *testing.T) {
	ag, buf, wait := startAgent(t, shm.Geometry{CPUs: 1, BufWords: 256, NumBufs: 4, MaxClients: 4})
	seg := ag.Path()

	hang := child(t, faultinject.ChildSpec{
		Mode: faultinject.ModeHang, Segment: seg, CPU: 0, Payload: 3,
	})
	line, err := hang.Expect("hung")
	if err != nil {
		t.Fatal(err)
	}
	holeWords, err := faultinject.Field(line, "words")
	if err != nil {
		t.Fatal(err)
	}
	if holeWords != 4 {
		t.Fatalf("hang child reserved %d words, want 4", holeWords)
	}
	if err := hang.Kill(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dead client reaped", func() bool { return ag.Reaped() >= 1 })

	// A healthy client then logs straight past the corpse's hole: the ring
	// must keep flowing, with only the commit-count mismatch as evidence.
	logger := child(t, faultinject.ChildSpec{
		Mode: faultinject.ModeLog, Segment: seg, CPU: 0, Events: 400, Pid: 7,
	})
	if _, err := logger.Expect("done events=400"); err != nil {
		t.Fatal(err)
	}
	if err := logger.Wait(); err != nil {
		t.Fatal(err)
	}

	ag.Stop()
	st, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := ag.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Anomalies != 1 {
		t.Errorf("captured %d anomalous blocks, want exactly 1", st.Anomalies)
	}

	evs, ds := decodeAll(t, buf.Bytes())
	if ds.SkippedWords != holeWords {
		t.Errorf("decoder skipped %d words, want the hole's %d", ds.SkippedWords, holeWords)
	}
	got := 0
	for i := range evs {
		if evs[i].Major() == event.MajorTest {
			got++
		}
	}
	if got != 400 {
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
	ag, buf, wait := startAgent(t, shm.Geometry{CPUs: 2, BufWords: 512, NumBufs: 4, MaxClients: 4})
	const perChild = 4000

	a := child(t, faultinject.ChildSpec{
		Mode: faultinject.ModeLog, Segment: ag.Path(), CPU: -1, Events: perChild, Pid: 1,
	})
	b := child(t, faultinject.ChildSpec{
		Mode: faultinject.ModeLog, Segment: ag.Path(), CPU: -1, Events: perChild, Pid: 2,
	})
	for _, c := range []*faultinject.Child{a, b} {
		if _, err := c.Expect("done"); err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	ag.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	if err := ag.Close(); err != nil {
		t.Fatal(err)
	}

	evs, ds := decodeAll(t, buf.Bytes())
	if ds.Garbled() {
		t.Errorf("clean run decoded garbled: %+v", ds)
	}
	test, eventWords := 0, 0
	last := map[int]uint64{}
	for i := range evs {
		ev := &evs[i]
		if ev.Time < last[ev.CPU] {
			t.Fatalf("cpu %d timestamp regressed: %d after %d", ev.CPU, ev.Time, last[ev.CPU])
		}
		last[ev.CPU] = ev.Time
		if ev.Major() == event.MajorTest {
			test++
		}
		eventWords += 1 + len(ev.Data)
	}
	if test != 2*perChild {
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
// memory path: the same synthetic workload run (a) by two real OS
// processes through Attach + the ktraced-style drain and (b) in-process
// through the core Tracer must produce traces whose per-CPU event
// streams — and therefore whose analysis Overview — are identical.
func TestCrossProcessAnalysisParity(t *testing.T) {
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
	var kids []*faultinject.Child
	for cpu := 0; cpu < cpus; cpu++ {
		kids = append(kids, child(t, faultinject.ChildSpec{
			Mode: faultinject.ModeWorkload, Segment: ag.Path(),
			CPU: cpu, Events: rounds, Pid: pids[cpu],
		}))
	}
	for _, c := range kids {
		if _, err := c.Expect("done"); err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	ag.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	if err := ag.Close(); err != nil {
		t.Fatal(err)
	}

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
	shmOv := overviewString(t, shmEvs)
	inOv := overviewString(t, inEvs)
	if shmOv != inOv {
		t.Errorf("Overview parity broken:\ncross-process:\n%s\nin-process:\n%s", shmOv, inOv)
	}
	if len(shmOv) == 0 || !bytes.Contains([]byte(shmOv), []byte("101")) {
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

func overviewString(t *testing.T, evs []event.Event) string {
	t.Helper()
	var b strings.Builder
	analysis.FormatOverview(&b, analysis.Build(evs, 1e9, event.Default).Overview())
	return b.String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCrossProcessBatchKill is the batched fast path's worst case made
// real: a child opens a multi-event batch, appends some events, and dies
// with the batch still open. The single batch reservation means the
// commit shortfall covers the whole extent — written events included —
// so the daemon must flag the block anomalous and the decoder must
// recover the written events while skipping exactly the unwritten tail.
func TestCrossProcessBatchKill(t *testing.T) {
	const (
		batchWords  = 20
		childEvents = 3 // 6 words written, 14-word zero tail
	)
	ag, buf, wait := startAgent(t, shm.Geometry{CPUs: 1, BufWords: 256, NumBufs: 4, MaxClients: 4})

	hang := child(t, faultinject.ChildSpec{
		Mode: faultinject.ModeBatchHang, Segment: ag.Path(),
		CPU: 0, Events: childEvents, Payload: batchWords,
	})
	line, err := hang.Expect("hung")
	if err != nil {
		t.Fatal(err)
	}
	extent, err := faultinject.Field(line, "words")
	if err != nil {
		t.Fatal(err)
	}
	written, err := faultinject.Field(line, "written")
	if err != nil {
		t.Fatal(err)
	}
	if extent != batchWords || written != 2*childEvents {
		t.Fatalf("child batch extent=%d written=%d, want %d/%d",
			extent, written, batchWords, 2*childEvents)
	}
	if err := hang.Kill(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dead client reaped", func() bool { return ag.Reaped() >= 1 })

	// A healthy client logs past the corpse, filling and sealing the
	// buffer that holds the abandoned batch.
	logger := child(t, faultinject.ChildSpec{
		Mode: faultinject.ModeLog, Segment: ag.Path(), CPU: 0, Events: 400, Pid: 7,
	})
	if _, err := logger.Expect("done events=400"); err != nil {
		t.Fatal(err)
	}
	if err := logger.Wait(); err != nil {
		t.Fatal(err)
	}

	ag.Stop()
	st, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := ag.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Anomalies != 1 {
		t.Errorf("captured %d anomalous blocks, want exactly 1", st.Anomalies)
	}

	evs, ds := decodeAll(t, buf.Bytes())
	// Exact loss accounting: only the batch's unwritten tail is skipped.
	if ds.SkippedWords != extent-written {
		t.Errorf("decoder skipped %d words, want the batch tail's %d",
			ds.SkippedWords, extent-written)
	}
	// The child's written events survive alongside the healthy client's.
	got := 0
	for i := range evs {
		if evs[i].Major() == event.MajorTest {
			got++
		}
	}
	if want := 400 + childEvents; got != want {
		t.Errorf("recovered %d test events, want %d (400 logged + %d from the dead batch)",
			got, want, childEvents)
	}
}
