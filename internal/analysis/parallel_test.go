package analysis

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/ksim"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// workerCounts are the fan-out widths every determinism test exercises:
// degenerate, modest, and more workers than this trace has CPU streams.
var workerCounts = []int{1, 2, 8}

// sdetTraceFull produces a traced SDET run with both samplers on, so the
// parallel determinism checks cover the profile and memory analyses too.
func sdetTraceFull(t *testing.T) *Trace {
	t.Helper()
	var buf bytes.Buffer
	p := sdet.Params{ScriptsPerCPU: 3, CommandsPerScript: 4, Seed: 9}
	if _, err := sdet.Run(sdet.Config{CPUs: 4, Trace: sdet.TraceOn, Params: p,
		Sample: 50_000, HWCSample: 50_000}, &buf); err != nil {
		t.Fatal(err)
	}
	rd, err := stream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return Build(evs, rd.Meta().ClockHz, event.Default)
}

// at is the i-th event v's drivers walk: the runs' events, then those of
// the slice.
func (v view) at(i int) *event.Event {
	for _, r := range v.runs {
		if i < len(r) {
			return &r[i]
		}
		i -= len(r)
	}
	if v.all {
		return &v.evs[i]
	}
	return &v.evs[v.pos[i]]
}

// TestParallelAnalysesMatchSequential is the tentpole's acceptance test:
// every report computed through per-CPU fan-out + merge must be identical
// — struct-for-struct and byte-for-byte — to the sequential walk, for
// every worker count. It holds for a trace as decoded, for one carrying
// events on a negative CPU (no per-CPU view holds them, and the walker
// skips them), and for a trace whose Events were pointed at another slice
// after reports had already run on the first.
func TestParallelAnalysesMatchSequential(t *testing.T) {
	tr := sdetTraceFull(t)
	t.Run("decoded", func(t *testing.T) { checkParallelMatchesSequential(t, tr) })

	t.Run("negative-cpu", func(t *testing.T) {
		var evs []event.Event
		for i, e := range tr.Events {
			if i%97 == 0 {
				evs = append(evs,
					mk(-1, e.Time, event.MajorSched, ksim.EvSchedSwitch, 0, 77),
					mk(-3, e.Time, event.MajorLock, ksim.EvLockAcquired, 0xbad, 5, 1, 1))
			}
			evs = append(evs, e)
		}
		neg := Build(evs, tr.ClockHz, event.Default)
		total := 0
		for c, v := range neg.perCPU() {
			total += v.len()
			for i := 0; i < v.len(); i++ {
				if v.at(i).CPU != c {
					t.Fatalf("cpu %d view holds an event of cpu %d", c, v.at(i).CPU)
				}
			}
		}
		if total != len(tr.Events) {
			t.Fatalf("per-CPU views hold %d events, want the %d on CPUs >= 0", total, len(tr.Events))
		}
		checkParallelMatchesSequential(t, neg)
	})

	t.Run("chains", func(t *testing.T) {
		// CPU 1 drops out and leaves an empty view between two full ones;
		// CPU 5 joins with a chain of one event. Every other CPU's events are
		// copied out of the slice into runs of uneven length, one empty.
		var evs []event.Event
		for i, e := range tr.Events {
			if i == len(tr.Events)/2 {
				evs = append(evs, mk(5, e.Time, event.MajorSched, ksim.EvSchedSwitch, 0, 77))
			}
			if e.CPU != 1 {
				evs = append(evs, e)
			}
		}
		byCPU := cutChains(evs, []int{1, 40, 7, 0, 300, 2, 1000})
		ch := BuildRuns(evs, byCPU, tr.ClockHz, event.Default)
		views := ch.perCPU()
		if len(views) != 6 || views[1].len() != 0 || views[5].len() != 1 {
			t.Fatalf("%d views; CPU 1's holds %d events, CPU 5's %d: want 6 views, 0 and 1", len(views), views[1].len(), views[5].len())
		}
		for c, v := range views {
			if v.all || v.pos != nil {
				t.Fatalf("CPU %d of a trace built from its runs is viewed by positions", c)
			}
		}
		checkParallelMatchesSequential(t, ch)
	})

	t.Run("reassigned", func(t *testing.T) {
		// The reports above left tr with views of the whole stream.
		tr.Events = append([]event.Event(nil), tr.Events[len(tr.Events)/3:]...)
		checkParallelMatchesSequential(t, tr)
	})
}

// cutChains copies each CPU's events of a merged slice out, CPUs
// ascending, into runs whose lengths go round lens (0 is an empty run): the
// runs a merge of them would group as BuildRuns takes them.
func cutChains(evs []event.Event, lens []int) [][]event.Event {
	var byCPU [][]event.Event
	for c := 0; c <= MaxCPU(evs); c++ {
		var mine []event.Event
		for i := range evs {
			if evs[i].CPU == c {
				mine = append(mine, evs[i])
			}
		}
		for k := 0; len(mine) > 0; k++ {
			n := min(lens[k%len(lens)], len(mine))
			byCPU, mine = append(byCPU, mine[:n:n]), mine[n:]
		}
	}
	return byCPU
}

func checkParallelMatchesSequential(t *testing.T, tr *Trace) {
	t.Helper()
	seqLock := tr.LockStat()
	seqProf := tr.Profile(^uint64(0))
	seqOver := tr.Overview()
	seqMem := tr.MemProfile()
	if len(seqLock.Rows) == 0 || seqProf.Total == 0 || len(seqOver) == 0 || seqMem.Samples == 0 {
		t.Fatalf("sequential baselines degenerate: locks=%d samples=%d procs=%d hwc=%d",
			len(seqLock.Rows), seqProf.Total, len(seqOver), seqMem.Samples)
	}
	// Break down every process the overview saw, not just a lucky pick.
	seqTB := map[uint64]string{}
	for _, row := range seqOver {
		seqTB[row.Pid] = tr.TimeBreak(row.Pid).String()
	}

	for _, w := range workerCounts {
		if got := tr.LockStatParallel(w); !reflect.DeepEqual(got.Rows, seqLock.Rows) {
			t.Errorf("workers=%d: LockStat rows differ", w)
		} else if got.String() != seqLock.String() {
			t.Errorf("workers=%d: LockStat formatted report differs", w)
		}
		if got := tr.ProfileParallel(^uint64(0), w); !reflect.DeepEqual(got.Rows, seqProf.Rows) ||
			got.Total != seqProf.Total || got.String() != seqProf.String() {
			t.Errorf("workers=%d: Profile differs", w)
		}
		if got := tr.OverviewParallel(w); !reflect.DeepEqual(got, seqOver) {
			t.Errorf("workers=%d: Overview differs", w)
		}
		if got := tr.MemProfileParallel(w); !reflect.DeepEqual(got.Rows, seqMem.Rows) ||
			got.Samples != seqMem.Samples || got.Totals != seqMem.Totals {
			t.Errorf("workers=%d: MemProfile differs", w)
		}
		for pid, want := range seqTB {
			if got := tr.TimeBreakParallel(pid, w).String(); got != want {
				t.Errorf("workers=%d pid=%d: TimeBreak differs", w, pid)
			}
		}
	}
}

// TestStreamWalkerChunkedMatchesWalk verifies the stitching mechanism
// itself: feeding a stream through a resumable walker in arbitrary chunks
// reproduces the one-shot Walk exactly, including spans that cross chunk
// boundaries.
func TestStreamWalkerChunkedMatchesWalk(t *testing.T) {
	evs := []event.Event{
		mk(0, 10, event.MajorSched, ksim.EvSchedSwitch, 0, 5),
		mk(1, 12, event.MajorSched, ksim.EvSchedSwitch, 0, 7),
		mk(0, 20, event.MajorSyscall, ksim.EvSyscallEnter, 5, ksim.SysRead),
		mk(1, 25, event.MajorLock, ksim.EvLockStartWait, 0xa, 1),
		mk(0, 30, event.MajorException, ksim.EvPPCCall, 1),
		mk(1, 35, event.MajorLock, ksim.EvLockAcquired, 0xa, 10, 3, 1),
		mk(-1, 40, event.MajorSched, ksim.EvSchedSwitch, 0, 3), // no CPU's event: skipped
		mk(0, 50, event.MajorException, ksim.EvPPCReturn, 1),
		mk(1, 55, event.MajorLock, ksim.EvLockRelease, 0xa, 20),
		mk(0, 60, event.MajorSyscall, ksim.EvSyscallExit, 5, ksim.SysRead),
		mk(0, 80, event.MajorSched, ksim.EvSchedIdle),
		mk(1, 90, event.MajorSched, ksim.EvSchedSwitch, 7, 9),
		mk(0, 100, event.MajorSched, ksim.EvSchedResume, 20),
	}
	type rec struct {
		span     bool
		cpu      int
		mode     ModeKind
		pid      uint64
		from, to uint64
	}
	capture := func(out *[]rec) Hooks {
		return Hooks{
			Span: func(cpu int, st *CPUState, from, to uint64) {
				*out = append(*out, rec{span: true, cpu: cpu, mode: st.Mode(), pid: st.Pid, from: from, to: to})
			},
			Event: func(e *event.Event, st *CPUState) {
				*out = append(*out, rec{cpu: e.CPU, mode: st.Mode(), pid: st.Pid, from: e.Time})
			},
		}
	}
	var want []rec
	Walk(evs, MaxCPU(evs), capture(&want))
	for _, chunk := range []int{1, 3, 5, len(evs)} {
		var got []rec
		w := NewStreamWalker(MaxCPU(evs), capture(&got))
		for i := 0; i < len(evs); i += chunk {
			end := i + chunk
			if end > len(evs) {
				end = len(evs)
			}
			w.Feed(evs[i:end])
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("chunk=%d: chunked walk differs from one-shot walk", chunk)
		}
	}

	// A CPU's view walks to what the whole walk recorded for that CPU, on
	// the slice the views were made of and on the one Events points at next.
	tr := Build(evs, 1, event.Default)
	for _, n := range []int{len(evs), 7} {
		tr.Events = evs[:n]
		var all []rec
		Walk(tr.Events, MaxCPU(evs), capture(&all))
		for c, v := range tr.perCPU() {
			var want, got []rec
			for _, r := range all {
				if r.cpu == c {
					want = append(want, r)
				}
			}
			NewStreamWalker(MaxCPU(evs), capture(&got)).feed(v)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("first %d events: walking cpu %d's view differs from the whole walk's records for it", n, c)
			}
		}
	}
}

// TestBoundarySpanningLockHold drives the whole pipeline over a real
// trace file whose lock acquire and release land in different blocks:
// tiny buffers force the hold across an alignment boundary, and the
// parallel decode + analysis must attribute it identically.
func TestBoundarySpanningLockHold(t *testing.T) {
	tcore := core.MustNew(core.Config{
		CPUs: 1, BufWords: 16, NumBufs: 4,
		Mode: core.Stream, Clock: clock.NewManual(1),
	})
	tcore.EnableAll()
	var buf bytes.Buffer
	wait := stream.CaptureAsync(tcore, &buf)
	c := tcore.CPU(0)
	c.Log2(event.MajorSched, ksim.EvSchedSwitch, 0, 5)
	c.Log4(event.MajorLock, ksim.EvLockAcquired, 0xbeef, 40, 7, 3)
	for i := 0; i < 20; i++ { // 40+ words: well past the 16-word boundary
		c.Log1(event.MajorTest, 1, uint64(i))
	}
	c.Log2(event.MajorLock, ksim.EvLockRelease, 0xbeef, 123)
	for i := 0; i < 20; i++ { // flush the release's block out
		c.Log1(event.MajorTest, 2, uint64(i))
	}
	tcore.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}

	rd, err := stream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumBlocks() < 3 {
		t.Fatalf("want the hold to span blocks, got %d blocks", rd.NumBlocks())
	}
	var seq *LockReport
	for _, w := range workerCounts {
		evs, _, err := rd.ReadAllParallel(w)
		if err != nil {
			t.Fatal(err)
		}
		tr := Build(evs, 1, event.Default)
		rep := tr.LockStatParallel(w)
		if len(rep.Rows) != 1 {
			t.Fatalf("workers=%d: got %d lock rows, want 1", w, len(rep.Rows))
		}
		row := rep.Rows[0]
		if row.LockID != 0xbeef || row.HoldNs != 123 || row.TotalWaitNs != 40 || row.Count != 1 {
			t.Errorf("workers=%d: row %+v lost the boundary-spanning hold", w, row)
		}
		if seq == nil {
			seq = tr.LockStat()
		}
		if !reflect.DeepEqual(rep.Rows, seq.Rows) {
			t.Errorf("workers=%d: parallel rows differ from sequential", w)
		}
	}
}

// TestCrossCPUDiskWait pins the one genuinely cross-CPU computation: an
// IO_BLOCK on one CPU answered by an IO_WAKE on another must be credited
// as disk wait by both the sequential and the per-CPU parallel paths.
func TestCrossCPUDiskWait(t *testing.T) {
	const pid, tid = 5, 0x55
	evs := []event.Event{
		mk(0, 1, event.MajorProc, ksim.EvProcSpawn, pid, tid),
		mk(0, 10, event.MajorSched, ksim.EvSchedSwitch, 0, pid),
		mk(0, 20, event.MajorIO, ksim.EvIOBlock, 1, tid),
		mk(0, 21, event.MajorSched, ksim.EvSchedSwitch, pid, 0),
		mk(1, 50, event.MajorIO, ksim.EvIOWake, 1, tid),
	}
	tr := Build(evs, 1, event.Default)
	want := tr.TimeBreak(pid)
	if want.DiskWait.Ns != 30 || want.DiskWait.Calls != 1 {
		t.Fatalf("sequential DiskWait = %+v, want 30ns/1 call", want.DiskWait)
	}
	for _, w := range workerCounts {
		got := tr.TimeBreakParallel(pid, w)
		if got.DiskWait != want.DiskWait {
			t.Errorf("workers=%d: DiskWait %+v != sequential %+v", w, got.DiskWait, want.DiskWait)
		}
		if got.String() != want.String() {
			t.Errorf("workers=%d: TimeBreak differs from sequential", w)
		}
	}
}

// TestPerCPUViewsPreserveOrder: the i-th event of CPU c's view is the i-th
// event of CPU c in the slice, in place. A slice one CPU holds is that CPU's
// view as it stands, with no positions.
func TestPerCPUViewsPreserveOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		evs   []event.Event
		views int
	}{
		{"three CPUs", []event.Event{
			mk(0, 1, event.MajorTest, 1), mk(1, 1, event.MajorTest, 2),
			mk(0, 2, event.MajorTest, 3), mk(2, 2, event.MajorTest, 4),
			mk(-1, 2, event.MajorTest, 7),
			mk(1, 3, event.MajorTest, 5), mk(0, 3, event.MajorTest, 6),
		}, 3},
		{"one CPU", []event.Event{
			mk(2, 1, event.MajorTest, 1), mk(2, 1, event.MajorTest, 2), mk(2, 4, event.MajorTest, 3),
		}, 3},
		{"one CPU and a negative one", []event.Event{
			mk(1, 1, event.MajorTest, 1), mk(-1, 2, event.MajorTest, 2), mk(1, 4, event.MajorTest, 3),
		}, 2},
	} {
		evs := tc.evs
		views := perCPUViews(evs)
		if len(views) != tc.views {
			t.Fatalf("%s: got %d views, want %d", tc.name, len(views), tc.views)
		}
		next := make([]int, len(views))
		for i := range evs {
			c := evs[i].CPU
			if c < 0 {
				continue
			}
			if next[c] >= views[c].len() || views[c].at(next[c]) != &evs[i] {
				t.Fatalf("%s: event %d of the slice is not event %d of CPU %d's view, in place", tc.name, i, next[c], c)
			}
			next[c]++
		}
		for c, v := range views {
			if next[c] != v.len() {
				t.Fatalf("%s: CPU %d's view holds %d events, the slice %d", tc.name, c, v.len(), next[c])
			}
			if v.len() == len(evs) && (!v.all || v.pos != nil) {
				t.Errorf("%s: CPU %d holds every event and its view is %d positions, not the slice", tc.name, c, len(v.pos))
			}
		}
	}
	if perCPUViews(nil) != nil {
		t.Error("viewing nothing should return nil")
	}
	evs := switches(5)
	if w := whole(evs); w.len() != len(evs) || w.at(4) != &evs[4] {
		t.Error("the whole view is not every event in place")
	}
}

// TestViewOncePerTrace: the *Parallel reports share one set of per-CPU
// views of the trace, made on first use — also when the first uses race —
// costing positions and not events, and remade when the caller points
// Events at a different stream.
func TestViewOncePerTrace(t *testing.T) {
	tr := sdetTraceFull(t)
	want := tr.Overview()
	from, to := tr.Span()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				if got := tr.OverviewParallel(2); !reflect.DeepEqual(got, want) {
					t.Error("concurrent OverviewParallel differs from the sequential report")
				}
			case 1:
				tr.LockStatParallel(2)
			default:
				tr.OccupancyRangeParallel(from, to+1, 4, 2)
			}
		}(i)
	}
	wg.Wait()
	first := tr.perCPU()
	if again := tr.perCPU(); &again[0] != &first[0] {
		t.Error("a second report viewed the trace again")
	}
	if a := testing.AllocsPerRun(10, func() { tr.perCPU() }); a != 0 {
		t.Errorf("perCPU on a viewed trace allocates %.0f objects", a)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	views := perCPUViews(tr.Events)
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(5*len(tr.Events)); got > max {
		t.Errorf("per-CPU views of %d events (%d CPUs) allocate %d bytes, want <= 5 per event",
			len(tr.Events), len(views), got)
	}

	// One CPU's share alone, as a one-CPU trace: its view is the slice, and
	// costs a count and a view a CPU, however many events it holds.
	var one []event.Event
	for i := range tr.Events {
		if tr.Events[i].CPU == len(views)-1 {
			one = append(one, tr.Events[i])
		}
	}
	runtime.ReadMemStats(&before)
	oneViews := perCPUViews(one)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; len(one) < 256 || got > 512 {
		t.Errorf("per-CPU views of %d events on one CPU allocate %d bytes, want <= 512", len(one), got)
	}
	oneTrace := Build(one, tr.ClockHz, tr.Reg)
	if got, want := oneTrace.OverviewParallel(2), oneTrace.Overview(); len(oneViews) != len(views) || !reflect.DeepEqual(got, want) {
		t.Error("OverviewParallel of a one-CPU trace differs from the sequential report")
	}

	// Built from the runs its slice was merged from, a trace has its views
	// before any report asks for them: the first perCPU allocates nothing,
	// and the reports walk the runs and never view positions.
	rt := BuildRuns(tr.Events, cutChains(tr.Events, []int{3, 500, 0, 64}), tr.ClockHz, tr.Reg)
	runtime.ReadMemStats(&before)
	runViews := rt.perCPU()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 || len(runViews) != len(views) {
		t.Errorf("perCPU of a trace built from its runs allocates %d objects and makes %d views, want 0 and %d", n, len(runViews), len(views))
	}
	if got := rt.OverviewParallel(2); !reflect.DeepEqual(got, want) {
		t.Error("OverviewParallel walking the runs differs from the sequential report")
	}
	for c, v := range rt.perCPU() {
		if len(v.runs) == 0 || &v.runs[0] != &runViews[c].runs[0] || v.all || v.pos != nil {
			t.Fatalf("CPU %d of a trace built from its runs was viewed again, by positions", c)
		}
	}

	// Half the stream, as a caller trimming to a window would assign it.
	half := append([]event.Event(nil), tr.Events[:len(tr.Events)/2]...)
	tr.Events = half
	if got, want := tr.OverviewParallel(2), tr.Overview(); !reflect.DeepEqual(got, want) {
		t.Error("OverviewParallel after Events was reassigned still reports the old stream")
	}
	tr.Events = nil
	if got := tr.OverviewParallel(2); len(got) != 0 {
		t.Errorf("OverviewParallel of an emptied trace reports %d processes", len(got))
	}
}
