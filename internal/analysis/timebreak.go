package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"k42trace/internal/event"
	"k42trace/internal/ksim"
)

// CallStats accumulates one category of Figure 8's breakdown: time spent,
// number of calls, and number of trace events observed inside.
type CallStats struct {
	Ns     uint64
	Calls  uint64
	Events uint64
}

// TimeBreak is the fine-grained system-behavior breakdown of Figure 8:
// "K42 tracing data is detailed and fine-grained enough to allow us to
// attribute time accurately among processes, thread switches, IPC
// activity, page-faults, and transitions to and from the Linux emulation
// layer." For one process it reports user time, per-syscall kernel time,
// per-syscall IPC time, and page-fault time; for server processes it
// reports time spent servicing IPC calls from other processes, categorized
// by function.
type TimeBreak struct {
	Pid    uint64
	Name   string
	UserNs uint64
	// Syscalls and IPC are keyed by syscall name ("SCopen" style in the
	// paper; we use the plain names).
	Syscalls  map[string]*CallStats
	IPC       map[string]*CallStats
	PageFault CallStats
	// Interrupts is time stolen from the process by interrupt handling.
	Interrupts CallStats
	// DiskWait is time the process's threads spent asleep on disk I/O
	// (from IO_BLOCK/IO_WAKE event pairs; the CPU ran other work or idled
	// meanwhile, so this is *not* part of ExProcess CPU time).
	DiskWait CallStats
	// ExProcess is time spent on this process's behalf outside user mode
	// (kernel + servers + faults) — the paper's "Ex-process" row.
	ExProcessNs uint64
	// Serviced is filled for server pids: IPC work performed on behalf of
	// other processes, categorized by the syscall that drove it — the
	// "thread entry points" table at the bottom of Figure 8.
	Serviced map[string]*CallStats
}

func getCS(m map[string]*CallStats, k string) *CallStats {
	cs := m[k]
	if cs == nil {
		cs = &CallStats{}
		m[k] = cs
	}
	return cs
}

// ioRec is a block-boundary carry record for disk-wait matching: IO_BLOCK
// and IO_WAKE pair by thread id, and the wake can fire on a different CPU
// than the block, so per-CPU walks collect these and resolveDiskWait
// replays them globally in time order.
type ioRec struct {
	block bool
	tid   uint64
	time  uint64
	cpu   int
}

// TimeBreak computes the breakdown for one pid.
func (t *Trace) TimeBreak(pid uint64) *TimeBreak {
	tb, recs := t.timeBreakOf(pid, whole(t.Events), MaxCPU(t.Events))
	tb.resolveDiskWait(recs)
	return tb
}

// timeBreakOf walks one event stream accumulating every per-CPU category,
// and returns the I/O carry records for the one cross-CPU computation
// (disk waits) to be resolved after all streams are in.
func (t *Trace) timeBreakOf(pid uint64, v view, maxCPU int) (*TimeBreak, []ioRec) {
	acc := t.newTimeBreakAcc(pid)
	NewStreamWalker(maxCPU, Hooks{Span: acc.span, Event: acc.event}).feed(v)
	acc.tb.Name = t.ProcName(pid)
	return acc.tb, acc.recs
}

// timeBreakAcc accumulates one pid's breakdown incrementally. It holds the
// trace it resolves thread ownership against, so in the live path the
// ThreadPid map may still be growing while the accumulator runs.
type timeBreakAcc struct {
	t    *Trace
	pid  uint64
	tb   *TimeBreak
	recs []ioRec
}

func (t *Trace) newTimeBreakAcc(pid uint64) *timeBreakAcc {
	return &timeBreakAcc{t: t, pid: pid, tb: &TimeBreak{
		Pid:      pid,
		Syscalls: map[string]*CallStats{},
		IPC:      map[string]*CallStats{},
		Serviced: map[string]*CallStats{},
	}}
}

func (a *timeBreakAcc) span(cpu int, st *CPUState, from, to uint64) {
	tb, pid := a.tb, a.pid
	d := to - from
	mode := st.Mode()
	if st.Pid == pid {
		switch mode {
		case ModeUser:
			tb.UserNs += d
		case ModeSyscall:
			if nr, ok := st.Syscall(); ok {
				getCS(tb.Syscalls, "SC"+ksim.SyscallName(nr)).Ns += d
			}
			tb.ExProcessNs += d
		case ModeIPC, ModeLockWait:
			if nr, ok := st.Syscall(); ok {
				getCS(tb.IPC, "SC"+ksim.SyscallName(nr)).Ns += d
			} else {
				getCS(tb.IPC, "direct").Ns += d
			}
			tb.ExProcessNs += d
		case ModePgflt:
			tb.PageFault.Ns += d
			tb.ExProcessNs += d
		case ModeIRQ:
			tb.Interrupts.Ns += d
			tb.ExProcessNs += d
		}
	}
	// Server-side attribution: time in a domain equal to pid while
	// another process is scheduled.
	if st.Pid != pid && st.DomainPid() == pid &&
		(mode == ModeIPC || mode == ModeLockWait) {
		if nr, ok := st.Syscall(); ok {
			getCS(tb.Serviced, "SC"+ksim.SyscallName(nr)).Ns += d
		} else {
			getCS(tb.Serviced, "direct").Ns += d
		}
	}
}

func (a *timeBreakAcc) event(e *event.Event, st *CPUState) {
	tb, pid := a.tb, a.pid
	// Disk waits are keyed by thread id, not by scheduled pid: the
	// wake event fires on whatever CPU handles the completion, so
	// only record the carry here and pair it up in resolveDiskWait.
	if e.Major() == event.MajorIO && len(e.Data) >= 2 &&
		(e.Minor() == ksim.EvIOBlock || e.Minor() == ksim.EvIOWake) &&
		a.t.ThreadPid[e.Data[1]] == pid {
		a.recs = append(a.recs, ioRec{
			block: e.Minor() == ksim.EvIOBlock,
			tid:   e.Data[1],
			time:  e.Time,
			cpu:   e.CPU,
		})
	}
	if st.Pid != pid {
		// A server's Serviced calls: count PPC calls targeting it.
		if e.Major() == event.MajorException && e.Minor() == ksim.EvPPCCall &&
			len(e.Data) >= 1 && e.Data[0] == pid {
			if nr, ok := st.Syscall(); ok {
				getCS(tb.Serviced, "SC"+ksim.SyscallName(nr)).Calls++
			} else {
				getCS(tb.Serviced, "direct").Calls++
			}
		}
		if st.DomainPid() == pid && st.Mode() == ModeIPC {
			if nr, ok := st.Syscall(); ok {
				getCS(tb.Serviced, "SC"+ksim.SyscallName(nr)).Events++
			}
		}
		return
	}
	switch e.Major() {
	case event.MajorSyscall:
		if e.Minor() == ksim.EvSyscallEnter && len(e.Data) >= 2 {
			getCS(tb.Syscalls, "SC"+ksim.SyscallName(e.Data[1])).Calls++
		}
	case event.MajorException:
		switch e.Minor() {
		case ksim.EvPPCCall:
			if nr, ok := st.Syscall(); ok {
				getCS(tb.IPC, "SC"+ksim.SyscallName(nr)).Calls++
			} else {
				getCS(tb.IPC, "direct").Calls++
			}
		case ksim.EvPgflt:
			tb.PageFault.Calls++
		case ksim.EvIRQEnter:
			tb.Interrupts.Calls++
		}
	}
	// Count events observed while inside a syscall for this pid.
	if nr, ok := st.Syscall(); ok && st.Mode() != ModeUser {
		getCS(tb.Syscalls, "SC"+ksim.SyscallName(nr)).Events++
	}
}

// snapshot returns a deep copy of the current breakdown with names and
// disk waits resolved, leaving the accumulator free to keep accumulating.
func (a *timeBreakAcc) snapshot() *TimeBreak {
	tb := a.tb.clone()
	tb.Name = a.t.ProcName(a.pid)
	recs := append([]ioRec(nil), a.recs...)
	tb.resolveDiskWait(recs)
	return tb
}

// clone deep-copies the breakdown (fresh maps and CallStats values).
func (tb *TimeBreak) clone() *TimeBreak {
	c := *tb
	c.Syscalls = cloneCallMap(tb.Syscalls)
	c.IPC = cloneCallMap(tb.IPC)
	c.Serviced = cloneCallMap(tb.Serviced)
	return &c
}

func cloneCallMap(m map[string]*CallStats) map[string]*CallStats {
	out := make(map[string]*CallStats, len(m))
	for k, v := range m {
		cs := *v
		out[k] = &cs
	}
	return out
}

// resolveDiskWait replays the carried IO_BLOCK/IO_WAKE records in global
// time order (stable on (time, cpu), the merged-stream order) and credits
// each completed pair's sleep time. This runs once, after every stream's
// records have been collected, so a block on CPU 2 wakes correctly on
// CPU 5 even when the two streams were analyzed by different workers.
func (tb *TimeBreak) resolveDiskWait(recs []ioRec) {
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].time != recs[j].time {
			return recs[i].time < recs[j].time
		}
		return recs[i].cpu < recs[j].cpu
	})
	blockedAt := map[uint64]uint64{} // tid -> IO_BLOCK time
	for _, r := range recs {
		if r.block {
			blockedAt[r.tid] = r.time
			continue
		}
		if t0, ok := blockedAt[r.tid]; ok && r.time >= t0 {
			tb.DiskWait.Ns += r.time - t0
			tb.DiskWait.Calls++
			delete(blockedAt, r.tid)
		}
	}
}

// add folds another partial CallStats into cs.
func (cs *CallStats) add(o CallStats) {
	cs.Ns += o.Ns
	cs.Calls += o.Calls
	cs.Events += o.Events
}

func mergeCallMap(dst, src map[string]*CallStats) {
	for k, v := range src {
		getCS(dst, k).add(*v)
	}
}

// Merge folds another partial breakdown (same pid) into tb. DiskWait is
// excluded from partials by construction — it is credited only by
// resolveDiskWait over the combined carry records — so Merge is a plain
// field-wise sum.
func (tb *TimeBreak) Merge(o *TimeBreak) {
	tb.UserNs += o.UserNs
	mergeCallMap(tb.Syscalls, o.Syscalls)
	mergeCallMap(tb.IPC, o.IPC)
	tb.PageFault.add(o.PageFault)
	tb.Interrupts.add(o.Interrupts)
	tb.DiskWait.add(o.DiskWait)
	tb.ExProcessNs += o.ExProcessNs
	mergeCallMap(tb.Serviced, o.Serviced)
}

// Format writes the breakdown in the spirit of Figure 8: per-category
// computing time, call counts, and event counts, plus IPC columns and the
// serviced-requests table. Times are microseconds, as in the paper.
func (tb *TimeBreak) Format(w io.Writer) error {
	us := func(ns uint64) float64 { return float64(ns) / 1000 }
	if _, err := fmt.Fprintf(w, "process %d (%s)\n", tb.Pid, tb.Name); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %12s %7s %7s   %12s %7s\n",
		"", "time(us)", "calls", "events", "ipc time(us)", "ipcs")
	keys := make([]string, 0, len(tb.Syscalls)+len(tb.IPC))
	seen := map[string]bool{}
	for k := range tb.Syscalls {
		keys = append(keys, k)
		seen[k] = true
	}
	for k := range tb.IPC {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		sc := tb.Syscalls[k]
		if sc == nil {
			sc = &CallStats{}
		}
		ip := tb.IPC[k]
		if ip == nil {
			ip = &CallStats{}
		}
		fmt.Fprintf(w, "%-12s %12.2f %7d %7d   %12.2f %7d\n",
			k, us(sc.Ns), sc.Calls, sc.Events, us(ip.Ns), ip.Calls)
	}
	fmt.Fprintf(w, "%-12s %12.2f\n", "User", us(tb.UserNs))
	fmt.Fprintf(w, "%-12s %12.2f %7d\n", "PageFault", us(tb.PageFault.Ns), tb.PageFault.Calls)
	if tb.Interrupts.Calls > 0 {
		fmt.Fprintf(w, "%-12s %12.2f %7d\n", "Interrupt", us(tb.Interrupts.Ns), tb.Interrupts.Calls)
	}
	if tb.DiskWait.Calls > 0 {
		fmt.Fprintf(w, "%-12s %12.2f %7d\n", "DiskWait", us(tb.DiskWait.Ns), tb.DiskWait.Calls)
	}
	fmt.Fprintf(w, "%-12s %12.2f\n", "Ex-process", us(tb.ExProcessNs))
	if len(tb.Serviced) > 0 {
		fmt.Fprintf(w, "thread entry points (serviced for other processes):\n")
		var sk []string
		for k := range tb.Serviced {
			sk = append(sk, k)
		}
		sort.Strings(sk)
		for _, k := range sk {
			cs := tb.Serviced[k]
			fmt.Fprintf(w, "  %-12s %12.2f %7d\n", k, us(cs.Ns), cs.Calls)
		}
	}
	return nil
}

// String renders the breakdown.
func (tb *TimeBreak) String() string {
	var b strings.Builder
	tb.Format(&b)
	return b.String()
}

// TotalNs returns user + ex-process time, the process's total footprint.
func (tb *TimeBreak) TotalNs() uint64 { return tb.UserNs + tb.ExProcessNs }
