package analysis

import (
	"fmt"
	"io"
	"sort"

	"k42trace/internal/event"
)

// ProcSummary is one process's row in the whole-system overview: where its
// time went, at the granularity of the Figure 8 categories but for every
// process at once. This is the view that told the K42 team "whether the
// behavior degradation was coming from the user code, our Linux emulation
// code, or our kernel code."
type ProcSummary struct {
	Pid      uint64
	Name     string
	UserNs   uint64
	KernelNs uint64 // syscall + page-fault handling
	IPCNs    uint64 // server domains entered via PPC
	LockNs   uint64 // spinning on contended locks
	IdleNs   uint64 // only meaningful for the per-CPU pseudo rows
	Events   uint64 // trace events logged while this process was scheduled
}

// TotalNs is the process's scheduled time.
func (p ProcSummary) TotalNs() uint64 {
	return p.UserNs + p.KernelNs + p.IPCNs + p.LockNs
}

// Overview attributes all scheduled time in the trace to processes and
// returns per-process summaries sorted by total time, largest first.
func (t *Trace) Overview() []ProcSummary {
	return t.overviewOf(whole(t.Events), MaxCPU(t.Events))
}

// overviewOf aggregates one event stream. All state is per-CPU, so
// per-CPU partial overviews combine with MergeOverview into exactly the
// whole-trace result.
func (t *Trace) overviewOf(v view, maxCPU int) []ProcSummary {
	acc := newOverviewAcc()
	NewStreamWalker(maxCPU, acc.hooks()).feed(v)
	return acc.rows(t)
}

// overviewAcc accumulates the overview incrementally. It is the shared
// core of the one-shot overviewOf and the live Windowed engine, which
// keeps an accumulator alive across block feeds. Aggregation is
// commutative sums keyed by pid, so the result is independent of how the
// stream was chunked.
type overviewAcc struct {
	agg   map[uint64]*ProcSummary
	order []uint64
}

func newOverviewAcc() *overviewAcc {
	return &overviewAcc{agg: map[uint64]*ProcSummary{}}
}

func (a *overviewAcc) get(pid uint64) *ProcSummary {
	s := a.agg[pid]
	if s == nil {
		s = &ProcSummary{Pid: pid}
		a.agg[pid] = s
		a.order = append(a.order, pid)
	}
	return s
}

func (a *overviewAcc) span(st *CPUState, from, to uint64) {
	d := to - from
	s := a.get(st.Pid)
	switch st.Mode() {
	case ModeUser:
		s.UserNs += d
	case ModeSyscall, ModePgflt, ModeIRQ:
		s.KernelNs += d
	case ModeIPC:
		s.IPCNs += d
	case ModeLockWait:
		s.LockNs += d
	case ModeIdle:
		s.IdleNs += d
	}
}

func (a *overviewAcc) event(e *event.Event, st *CPUState) {
	if e.Major() != event.MajorControl {
		a.get(st.Pid).Events++
	}
}

func (a *overviewAcc) hooks() Hooks {
	return Hooks{
		Span:  func(cpu int, st *CPUState, from, to uint64) { a.span(st, from, to) },
		Event: a.event,
	}
}

// rows materializes the sorted summary table. Process names resolve
// against t at materialization time, not accumulation time: in a live
// stream the naming events may arrive after the first counts for a pid.
func (a *overviewAcc) rows(t *Trace) []ProcSummary {
	out := make([]ProcSummary, 0, len(a.order))
	for _, pid := range a.order {
		s := *a.agg[pid]
		s.Name = t.ProcName(pid)
		out = append(out, s)
	}
	sortOverview(out)
	return out
}

// sortOverview orders rows by total time descending, breaking ties by pid
// ascending — a total order, deterministic however rows were accumulated.
func sortOverview(rows []ProcSummary) {
	sort.SliceStable(rows, func(i, j int) bool {
		if a, b := rows[i].TotalNs(), rows[j].TotalNs(); a != b {
			return a > b
		}
		return rows[i].Pid < rows[j].Pid
	})
}

// MergeOverview folds partial overviews into one, combining rows for the
// same pid and re-sorting.
func MergeOverview(parts ...[]ProcSummary) []ProcSummary {
	ix := map[uint64]int{}
	var out []ProcSummary
	for _, rows := range parts {
		for _, r := range rows {
			i, ok := ix[r.Pid]
			if !ok {
				ix[r.Pid] = len(out)
				out = append(out, r)
				continue
			}
			s := &out[i]
			s.UserNs += r.UserNs
			s.KernelNs += r.KernelNs
			s.IPCNs += r.IPCNs
			s.LockNs += r.LockNs
			s.IdleNs += r.IdleNs
			s.Events += r.Events
		}
	}
	sortOverview(out)
	return out
}

// FormatOverview writes the per-process table (times in microseconds). A
// row is "%6d %-14s %10.1f %10.1f %10.1f %10.1f %10.1f %8d\n", built in one
// reused line.
func FormatOverview(w io.Writer, rows []ProcSummary) error {
	if _, err := fmt.Fprintf(w, "%6s %-14s %10s %10s %10s %10s %10s %8s\n",
		"pid", "name", "user(us)", "kernel(us)", "ipc(us)", "lock(us)", "total(us)", "events"); err != nil {
		return err
	}
	line := make([]byte, 0, 96)
	for _, r := range rows {
		line = append(appendLeft(append(appendUint(line[:0], r.Pid, 6), ' '), r.Name, 14), ' ')
		for _, ns := range [...]uint64{r.UserNs, r.KernelNs, r.IPCNs, r.LockNs, r.TotalNs()} {
			line = append(appendFloat(line, float64(ns)/1000, 1, 10), ' ')
		}
		line = append(appendUint(line, r.Events, 8), '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
