package main

import (
	"fmt"
	"io"

	"k42trace/internal/analysis"
)

// lockstat reproduces the paper's Figure 7: the lock-contention analysis
// that drove K42's tuning loop ("we used the lock analysis tool to
// determine the most contended lock in the system, fixed it, and then ran
// the tool again"). For each (lock, call chain, domain) it reports total
// wait time, contention count, spin count, maximum wait, and pid, sortable
// on any column.
func lockstat(stdout, stderr io.Writer, args []string) int {
	t := newTraceTool(stderr, "lockstat", "[flags] trace.ktr")
	sortKey := t.fs.String("sort", "time", "column to sort by: time, count, spin, max")
	top := t.fs.Int("top", 10, "number of entries to print")
	var key analysis.LockSortKey
	t.vet = func() error {
		var ok bool
		key, ok = map[string]analysis.LockSortKey{"time": analysis.ByTime,
			"count": analysis.ByCount, "spin": analysis.BySpin, "max": analysis.ByMaxTime}[*sortKey]
		if !ok {
			return fmt.Errorf("unknown sort key %q", *sortKey)
		}
		return nil
	}
	trace, code := t.load(args)
	if trace == nil {
		return code
	}
	rep := trace.LockStatParallel(t.jobs)
	rep.Sort(key)
	if len(rep.Rows) == 0 {
		fmt.Fprintln(stdout, "no contended locks in trace")
		return 0
	}
	if err := rep.Format(stdout, *top); err != nil {
		return t.status(err)
	}
	fmt.Fprintf(stdout, "total wait across all locks: %.6fs over %d contended sites\n",
		trace.Seconds(rep.TotalWait()), len(rep.Rows))
	return 0
}

// timebreak reproduces the paper's Figure 8: the fine-grained attribution
// of a process's time among user computation, system calls (with per-call
// costs, counts, and contained events), IPC activity, and page faults —
// plus, for server processes, the time spent servicing IPC calls made by
// other applications, categorized by function.
func timebreak(stdout, stderr io.Writer, args []string) int {
	t := newTraceTool(stderr, "timebreak", "(-pid N | -all) trace.ktr")
	pid := t.fs.Uint64("pid", ^uint64(0), "process to break down")
	all := t.fs.Bool("all", false, "print the per-process overview instead")
	if code, ok := t.parse(args, 1); !ok {
		return code
	}
	if *pid == ^uint64(0) && !*all {
		return t.usage()
	}
	trace, err := t.open(t.fs.Arg(0))
	if err != nil {
		return t.status(err)
	}
	if *all {
		return t.status(analysis.FormatOverview(stdout, trace.OverviewParallel(t.jobs)))
	}
	tb := trace.TimeBreakParallel(*pid, t.jobs)
	if tb.TotalNs() == 0 && len(tb.Serviced) == 0 {
		return t.status(fmt.Errorf("no activity for pid %d in trace", *pid))
	}
	return t.status(tb.Format(stdout))
}

// profbreak reproduces the paper's Figure 6: the statistical execution
// profile driven by PC-sampling events — "a sorted histogram of the
// routines that were statistically most active" for one process (or all of
// them).
func profbreak(stdout, stderr io.Writer, args []string) int {
	t := newTraceTool(stderr, "profbreak", "[flags] trace.ktr")
	pid := t.fs.Uint64("pid", 0, "process to profile")
	all := t.fs.Bool("all", false, "profile all processes combined")
	top := t.fs.Int("top", 12, "histogram entries to print")
	trace, code := t.load(args)
	if trace == nil {
		return code
	}
	target := *pid
	if *all {
		target = ^uint64(0)
	}
	p := trace.ProfileParallel(target, t.jobs)
	if p.Total == 0 {
		fmt.Fprintln(stdout, "no PC samples in trace (was the sampler enabled?)")
		return 0
	}
	if err := p.Format(stdout, *top); err != nil {
		return t.status(err)
	}
	fmt.Fprintf(stdout, "%d samples total\n", p.Total)
	return 0
}

// memhot analyzes the hardware-counter sample events in a trace — the §2
// integration: "the trace infrastructure may be used to study memory
// bottlenecks, memory hot-spots ... by logging hardware counter events,
// e.g., cache-line misses." It prints cache and coherence misses
// attributed by symbol. Produce a trace with counter samples via:
//
//	sdet -cpus 8 -config coarse -hwc 50000 -o trace.ktr
func memhot(stdout, stderr io.Writer, args []string) int {
	t := newTraceTool(stderr, "memhot", "[flags] trace.ktr")
	top := t.fs.Int("top", 12, "rows to print")
	trace, code := t.load(args)
	if trace == nil {
		return code
	}
	rep := trace.MemProfileParallel(t.jobs)
	if rep.Samples == 0 {
		fmt.Fprintln(stdout, "no hardware-counter samples in trace (enable them with the hwc sampling period)")
		return 0
	}
	return t.status(rep.Format(stdout, *top))
}

// lockorder post-processes a trace for lock-order cycles — the §4.2
// correctness-debugging use case: "to discover the deadlock, it was
// important to track the order of all the different requests ... a trace
// file was produced and post-processed to detect where the cycle had
// occurred." It replays lock acquire/release events, builds the lock-order
// graph, and reports every cycle with witness call chains.
func lockorder(stdout, stderr io.Writer, args []string) int {
	t := newTraceTool(stderr, "lockorder", "[flags] trace.ktr")
	trace, code := t.load(args)
	if trace == nil {
		return code
	}
	rep := trace.LockOrder()
	if err := rep.Format(stdout); err != nil {
		return t.status(err)
	}
	if len(rep.Cycles) > 0 {
		return 1 // a cycle is a finding
	}
	return 0
}
