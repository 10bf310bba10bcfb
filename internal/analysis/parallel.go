package analysis

import (
	"runtime"
	"sync"

	"k42trace/internal/event"
)

// This file is the analysis half of the parallel pipeline: the walker's
// state machine is strictly per-CPU, so splitting the merged trace back
// into per-CPU streams and analyzing each on its own goroutine produces
// partial results that merge into exactly the sequential answer. Locks
// held across block boundaries need no special handling — the hold stays
// inside its CPU's stream, and the resumable walker state spans blocks.
// The one cross-CPU computation (disk-wait pairing in TimeBreak) is
// carried out of each stream as records and resolved globally afterwards.

// SplitByCPU partitions a time-merged stream into per-CPU streams,
// preserving each CPU's event order (the exact inverse of the k-way merge
// that produced it). The sub-slices are fresh, so workers can walk them
// concurrently with the original untouched.
func SplitByCPU(evs []event.Event) [][]event.Event {
	if len(evs) == 0 {
		return nil
	}
	counts := make([]int, MaxCPU(evs)+1)
	for i := range evs {
		if c := evs[i].CPU; c >= 0 {
			counts[c]++
		}
	}
	streams := make([][]event.Event, len(counts))
	for c, n := range counts {
		if n > 0 {
			streams[c] = make([]event.Event, 0, n)
		}
	}
	for i := range evs {
		if c := evs[i].CPU; c >= 0 {
			streams[c] = append(streams[c], evs[i])
		}
	}
	return streams
}

// perCPU is SplitByCPU(t.Events), computed on first use and shared by every
// report after that, from any goroutine; the streams are read-only. A
// caller that assigns a different slice to Events gets a fresh split: the
// cache remembers which slice it split and checks on every call.
func (t *Trace) perCPU() [][]event.Event {
	t.split.Lock()
	defer t.split.Unlock()
	evs := t.Events
	if of := t.split.of; len(evs) != len(of) || (len(evs) > 0 && &evs[0] != &of[0]) {
		t.split.of, t.split.streams = evs, SplitByCPU(evs)
	}
	return t.split.streams
}

// mergePerCPU is the three steps every per-CPU report shares: part analyses
// one CPU's stream (it also receives the highest CPU index), on at most
// `workers` goroutines (workers <= 0 means GOMAXPROCS); after the barrier
// the parts of the non-empty streams go to merge in CPU order, so the
// combined result is the same for any worker count. Parts land in per-CPU
// storage and share nothing.
func mergePerCPU[P any](t *Trace, workers int, part func(evs []event.Event, maxCPU int) P, merge func(P)) {
	streams := t.perCPU()
	parts := make([]P, len(streams))
	run := func(c int) { parts[c] = part(streams[c], len(streams)-1) }
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		for c, s := range streams {
			if len(s) > 0 {
				run(c)
			}
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for c, s := range streams {
			if len(s) == 0 {
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
		if len(s) > 0 {
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
	mergePerCPU(t, workers, func(evs []event.Event, _ int) *Profile { return t.profileOf(pid, evs) }, p.Merge)
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
	mergePerCPU(t, workers, func(evs []event.Event, maxCPU int) (p part) {
		p.tb, p.recs = t.timeBreakOf(pid, evs, maxCPU)
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
	mergePerCPU(t, workers, func(evs []event.Event, _ int) *MemReport { return t.memProfileOf(evs) }, rep.Merge)
	sortMemRows(rep.Rows)
	return rep
}
