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

// forEachCPU runs fn over every non-empty stream with at most `workers`
// goroutines (workers <= 0 means GOMAXPROCS). fn receives the CPU index
// and its stream; results must be written to per-CPU storage, never
// shared — merging happens after the barrier, in CPU order, so the
// combined result is deterministic.
func forEachCPU(streams [][]event.Event, workers int, fn func(cpu int, evs []event.Event)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		for c, s := range streams {
			if len(s) > 0 {
				fn(c, s)
			}
		}
		return
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for c, s := range streams {
		if len(s) == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(c int, s []event.Event) {
			defer wg.Done()
			fn(c, s)
			<-sem
		}(c, s)
	}
	wg.Wait()
}

// LockStatParallel is LockStat fanned over per-CPU streams; output is
// identical to the sequential report for any worker count.
func (t *Trace) LockStatParallel(workers int) *LockReport {
	streams := t.perCPU()
	maxCPU := len(streams) - 1
	parts := make([]*LockReport, len(streams))
	forEachCPU(streams, workers, func(cpu int, evs []event.Event) {
		parts[cpu] = t.lockStatOf(evs, maxCPU)
	})
	rep := &LockReport{trace: t}
	for _, p := range parts {
		if p != nil {
			rep.Merge(p)
		}
	}
	rep.Sort(ByTime)
	return rep
}

// ProfileParallel is Profile fanned over per-CPU streams.
func (t *Trace) ProfileParallel(pid uint64, workers int) *Profile {
	streams := t.perCPU()
	parts := make([]*Profile, len(streams))
	forEachCPU(streams, workers, func(cpu int, evs []event.Event) {
		parts[cpu] = t.profileOf(pid, evs)
	})
	p := &Profile{Pid: pid, samples: map[uint64]int{}}
	for _, part := range parts {
		if part != nil {
			p.Merge(part)
		}
	}
	p.finish(t)
	return p
}

// TimeBreakParallel is TimeBreak fanned over per-CPU streams: each worker
// accumulates its stream's per-CPU categories plus disk-wait carry
// records; the records are then replayed globally, exactly as the
// sequential walk would have seen them.
func (t *Trace) TimeBreakParallel(pid uint64, workers int) *TimeBreak {
	streams := t.perCPU()
	maxCPU := len(streams) - 1
	parts := make([]*TimeBreak, len(streams))
	recs := make([][]ioRec, len(streams))
	forEachCPU(streams, workers, func(cpu int, evs []event.Event) {
		parts[cpu], recs[cpu] = t.timeBreakOf(pid, evs, maxCPU)
	})
	tb := &TimeBreak{
		Pid:      pid,
		Name:     t.ProcName(pid),
		Syscalls: map[string]*CallStats{},
		IPC:      map[string]*CallStats{},
		Serviced: map[string]*CallStats{},
	}
	var all []ioRec
	for c := range parts {
		if parts[c] != nil {
			tb.Merge(parts[c])
			all = append(all, recs[c]...)
		}
	}
	tb.resolveDiskWait(all)
	return tb
}

// OverviewParallel is Overview fanned over per-CPU streams.
func (t *Trace) OverviewParallel(workers int) []ProcSummary {
	streams := t.perCPU()
	maxCPU := len(streams) - 1
	parts := make([][]ProcSummary, len(streams))
	forEachCPU(streams, workers, func(cpu int, evs []event.Event) {
		parts[cpu] = t.overviewOf(evs, maxCPU)
	})
	return MergeOverview(parts...)
}

// MemProfileParallel is MemProfile fanned over per-CPU streams.
func (t *Trace) MemProfileParallel(workers int) *MemReport {
	streams := t.perCPU()
	parts := make([]*MemReport, len(streams))
	forEachCPU(streams, workers, func(cpu int, evs []event.Event) {
		parts[cpu] = t.memProfileOf(evs)
	})
	rep := &MemReport{trace: t}
	for _, p := range parts {
		if p != nil {
			rep.Merge(p)
		}
	}
	sortMemRows(rep.Rows)
	return rep
}
