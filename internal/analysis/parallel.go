package analysis

import (
	"math"
	"runtime"
	"sync"

	"k42trace/internal/event"
)

// This file is the analysis half of the parallel pipeline: the walker's
// state machine is strictly per-CPU, so viewing the merged trace one CPU
// at a time and analyzing each view on its own goroutine produces partial
// results that merge into exactly the sequential answer. Locks held
// across block boundaries need no special handling — the hold stays
// inside its CPU's stream, and the resumable walker state spans blocks.
// The one cross-CPU computation (disk-wait pairing in TimeBreak) is
// carried out of each stream as records and resolved globally afterwards.

// view is the events one driver walks, in order: all of a merged slice, or
// one CPU's share of it — as positions into the slice, 4 bytes an event
// where a copy would be 48, or, when the caller kept the runs the slice was
// merged from, as that CPU's runs where they lie, nothing an event. A
// driver walks a view in plain loops, one a shape: one cursor over every
// shape, called for each event, made the reports about a quarter slower.
// Views are read-only and can be walked concurrently.
type view struct {
	runs [][]event.Event // the viewed events, run after run
	evs  []event.Event
	pos  []uint32 // the viewed positions of evs, ascending
	all  bool     // every event of evs is viewed; pos is not consulted
}

// whole views every event of evs.
func whole(evs []event.Event) view { return view{evs: evs, all: true} }

func (v view) len() int {
	n := len(v.pos)
	if v.all {
		n = len(v.evs)
	}
	for _, r := range v.runs {
		n += len(r)
	}
	return n
}

// perCPUViews views a time-merged slice one CPU at a time, each view in its
// CPU's event order: the inverse of the k-way merge that produced the
// slice, without a copy. Events on a negative CPU are in no view. When one
// CPU holds every event, the slice is that CPU's view as it stands.
func perCPUViews(evs []event.Event) []view {
	if len(evs) == 0 {
		return nil
	}
	if len(evs) > math.MaxUint32 {
		panic("analysis: a trace of more than 2^32 events has no per-CPU view")
	}
	counts := make([]int, MaxCPU(evs)+1)
	for i := range evs {
		if c := evs[i].CPU; c >= 0 {
			counts[c]++
		}
	}
	views := make([]view, len(counts))
	if c := evs[0].CPU; c >= 0 && counts[c] == len(evs) {
		views[c] = whole(evs)
		return views
	}
	slab := make([]uint32, len(evs)) // every view's positions, in one allocation
	for c, nc := range counts {
		views[c] = view{evs: evs, pos: slab[:0:nc]}
		slab = slab[nc:]
	}
	for i := range evs {
		if c := evs[i].CPU; c >= 0 {
			views[c].pos = append(views[c].pos, uint32(i))
		}
	}
	return views
}

// runViews views the runs a slice was merged from one CPU at a time, as
// BuildRuns takes them: a CPU's view is its stretch of byCPU, read where it
// lies. There are as many views as perCPUViews makes of the merged slice,
// in the one allocation that holds them; a run on a negative CPU is in no
// view, and an empty run in the stretch it lies in.
func runViews(byCPU [][]event.Event) []view {
	maxCPU, seen := 0, false
	for _, r := range byCPU {
		if len(r) > 0 {
			maxCPU, seen = max(maxCPU, r[0].CPU), true
		}
	}
	if !seen {
		return nil
	}
	views := make([]view, maxCPU+1)
	start, cpu := 0, -1 // the stretch being collected is byCPU[start:i], of cpu
	for i, r := range byCPU {
		if len(r) == 0 || r[0].CPU == cpu {
			continue
		}
		if cpu >= 0 {
			views[cpu].runs = byCPU[start:i]
		}
		start, cpu = i, r[0].CPU
	}
	if cpu >= 0 {
		views[cpu].runs = byCPU[start:]
	}
	return views
}

// perCPU is the per-CPU views of t.Events — the runs BuildRuns was given,
// or else perCPUViews(t.Events), computed on first use — shared by every
// report after that, from any goroutine; the views are read-only. A caller
// that assigns a different slice to Events gets fresh views: the cache
// remembers which slice it viewed and checks on every call.
func (t *Trace) perCPU() []view {
	t.split.Lock()
	defer t.split.Unlock()
	evs := t.Events
	if of := t.split.of; len(evs) != len(of) || (len(evs) > 0 && &evs[0] != &of[0]) {
		t.split.of, t.split.views = evs, perCPUViews(evs)
	}
	return t.split.views
}

// mergePerCPU is the three steps every per-CPU report shares: part analyses
// one CPU's view (it also receives the highest CPU index), on at most
// `workers` goroutines (workers <= 0 means GOMAXPROCS); after the barrier
// the parts of the non-empty views go to merge in CPU order, so the
// combined result is the same for any worker count. Parts land in per-CPU
// storage and share nothing.
func mergePerCPU[P any](t *Trace, workers int, part func(v view, maxCPU int) P, merge func(P)) {
	streams := t.perCPU()
	parts := make([]P, len(streams))
	run := func(c int) { parts[c] = part(streams[c], len(streams)-1) }
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		for c, s := range streams {
			if s.len() > 0 {
				run(c)
			}
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for c, s := range streams {
			if s.len() == 0 {
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				run(c)
				<-sem
			}()
		}
		wg.Wait()
	}
	for c, s := range streams {
		if s.len() > 0 {
			merge(parts[c])
		}
	}
}

// LockStatParallel is LockStat fanned over per-CPU streams; output is
// identical to the sequential report for any worker count.
func (t *Trace) LockStatParallel(workers int) *LockReport {
	rep := &LockReport{trace: t}
	mergePerCPU(t, workers, t.lockStatOf, rep.Merge)
	rep.Sort(ByTime)
	return rep
}

// ProfileParallel is Profile fanned over per-CPU streams.
func (t *Trace) ProfileParallel(pid uint64, workers int) *Profile {
	p := &Profile{Pid: pid, samples: map[uint64]int{}}
	mergePerCPU(t, workers, func(v view, _ int) *Profile { return t.profileOf(pid, v) }, p.Merge)
	p.finish(t)
	return p
}

// TimeBreakParallel is TimeBreak fanned over per-CPU streams: each worker
// accumulates its stream's per-CPU categories plus disk-wait carry
// records; the records are then replayed globally, exactly as the
// sequential walk would have seen them.
func (t *Trace) TimeBreakParallel(pid uint64, workers int) *TimeBreak {
	tb := &TimeBreak{
		Pid:      pid,
		Name:     t.ProcName(pid),
		Syscalls: map[string]*CallStats{},
		IPC:      map[string]*CallStats{},
		Serviced: map[string]*CallStats{},
	}
	type part struct {
		tb   *TimeBreak
		recs []ioRec
	}
	var all []ioRec
	mergePerCPU(t, workers, func(v view, maxCPU int) (p part) {
		p.tb, p.recs = t.timeBreakOf(pid, v, maxCPU)
		return p
	}, func(p part) {
		tb.Merge(p.tb)
		all = append(all, p.recs...)
	})
	tb.resolveDiskWait(all)
	return tb
}

// OverviewParallel is Overview fanned over per-CPU streams.
func (t *Trace) OverviewParallel(workers int) []ProcSummary {
	var parts [][]ProcSummary
	mergePerCPU(t, workers, t.overviewOf, func(p []ProcSummary) { parts = append(parts, p) })
	return MergeOverview(parts...)
}

// MemProfileParallel is MemProfile fanned over per-CPU streams.
func (t *Trace) MemProfileParallel(workers int) *MemReport {
	rep := &MemReport{trace: t}
	mergePerCPU(t, workers, func(v view, _ int) *MemReport { return t.memProfileOf(v) }, rep.Merge)
	sortMemRows(rep.Rows)
	return rep
}
