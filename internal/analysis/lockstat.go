package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"k42trace/internal/event"
	"k42trace/internal/ksim"
)

// LockRow is one entry of the lock-contention report: the aggregate over
// all contended acquisitions of one lock from one call chain in one
// domain, exactly the columns of the paper's Figure 7.
type LockRow struct {
	LockID  uint64
	ChainID uint64
	Pid     uint64
	// TotalWaitNs is "the total amount of time (over the given run) that
	// was spent waiting for that particular lock".
	TotalWaitNs uint64
	// Count is "the number of times that lock was contended".
	Count uint64
	// Spins is "the number of times we have gone around the spin loop".
	Spins uint64
	// MaxWaitNs is "the maximum time a process ever waited to acquire this
	// lock".
	MaxWaitNs uint64
	// HoldNs aggregates hold times of the contended sections (from release
	// events), which exposed the long-hold-time anomaly of §2.
	HoldNs uint64
}

// LockSortKey selects the report ordering; "the tool will sort on any of
// these columns."
type LockSortKey int

const (
	// ByTime sorts by total wait time (the default, as in Figure 7).
	ByTime LockSortKey = iota
	// ByCount sorts by contention count.
	ByCount
	// BySpin sorts by spin count.
	BySpin
	// ByMaxTime sorts by maximum single wait.
	ByMaxTime
)

// LockReport aggregates lock contention from a trace.
type LockReport struct {
	Rows  []LockRow
	trace *Trace
}

// LockStat builds the lock-contention report (§4.6). Wait, spin, and chain
// data come from LOCK_ACQUIRED events; the executing domain pid comes from
// the replayed scheduling/PPC state, which is why integrating scheduling
// events into the same trace matters.
func (t *Trace) LockStat() *LockReport {
	return t.lockStatOf(whole(t.Events), MaxCPU(t.Events))
}

// lockStatOf runs the lock walk over one view — the whole merged trace,
// or a single CPU's stream in the parallel path (lock state is keyed per
// (cpu, lock), so per-CPU streams are self-contained: a hold spanning a
// block boundary still pairs up inside its own stream).
func (t *Trace) lockStatOf(v view, maxCPU int) *LockReport {
	acc := newLockAcc()
	NewStreamWalker(maxCPU, Hooks{Event: acc.event}).feed(v)
	return acc.report(t)
}

// lockKey identifies one report row: a lock acquired from a call chain in
// a domain.
type lockKey struct {
	lock, chain, pid uint64
}

// cpuLock keys the acquisition-to-release pairing state.
type cpuLock struct {
	cpu  int
	lock uint64
}

// lockAcc accumulates lock contention incrementally. The pairing state in
// lastAcq is why the live path keeps one accumulator alive across block
// feeds: a hold spanning a block boundary still pairs with its
// acquisition, exactly as in a single whole-stream walk.
type lockAcc struct {
	agg   map[lockKey]*LockRow
	order []lockKey
	// lastAcq remembers the last contended acquisition per (cpu, lock) so
	// the following release's hold time lands on the right row.
	lastAcq map[cpuLock]lockKey
}

func newLockAcc() *lockAcc {
	return &lockAcc{agg: map[lockKey]*LockRow{}, lastAcq: map[cpuLock]lockKey{}}
}

func (a *lockAcc) event(e *event.Event, st *CPUState) {
	if e.Major() != event.MajorLock {
		return
	}
	switch e.Minor() {
	case ksim.EvLockAcquired:
		if len(e.Data) < 4 {
			return
		}
		k := lockKey{lock: e.Data[0], chain: e.Data[3], pid: st.DomainPid()}
		r := a.agg[k]
		if r == nil {
			r = &LockRow{LockID: k.lock, ChainID: k.chain, Pid: k.pid}
			a.agg[k] = r
			a.order = append(a.order, k)
		}
		wait, spins := e.Data[1], e.Data[2]
		r.Count++
		r.TotalWaitNs += wait
		r.Spins += spins
		if wait > r.MaxWaitNs {
			r.MaxWaitNs = wait
		}
		a.lastAcq[cpuLock{e.CPU, k.lock}] = k
	case ksim.EvLockRelease:
		if len(e.Data) < 2 {
			return
		}
		if k, ok := a.lastAcq[cpuLock{e.CPU, e.Data[0]}]; ok {
			a.agg[k].HoldNs += e.Data[1]
			delete(a.lastAcq, cpuLock{e.CPU, e.Data[0]})
		}
	}
}

// report materializes a sorted report from the accumulated rows. It copies
// row values, so the accumulator may keep accumulating afterwards.
func (a *lockAcc) report(t *Trace) *LockReport {
	rep := &LockReport{trace: t}
	for _, k := range a.order {
		rep.Rows = append(rep.Rows, *a.agg[k])
	}
	rep.Sort(ByTime) // Figure 7's default ordering
	return rep
}

// Merge folds another report's rows into r, combining rows for the same
// (lock, chain, pid), then re-sorts by total wait. Aggregation is
// associative and commutative, so partial reports built over disjoint
// slices of a trace (per CPU stream, per block range) merge into exactly
// the whole-trace report.
func (r *LockReport) Merge(o *LockReport) {
	type key struct {
		lock, chain, pid uint64
	}
	ix := make(map[key]int, len(r.Rows))
	for i, row := range r.Rows {
		ix[key{row.LockID, row.ChainID, row.Pid}] = i
	}
	for _, row := range o.Rows {
		k := key{row.LockID, row.ChainID, row.Pid}
		i, ok := ix[k]
		if !ok {
			ix[k] = len(r.Rows)
			r.Rows = append(r.Rows, row)
			continue
		}
		a := &r.Rows[i]
		a.TotalWaitNs += row.TotalWaitNs
		a.Count += row.Count
		a.Spins += row.Spins
		if row.MaxWaitNs > a.MaxWaitNs {
			a.MaxWaitNs = row.MaxWaitNs
		}
		a.HoldNs += row.HoldNs
	}
	r.Sort(ByTime)
}

// Sort orders the rows by the given column, descending, with ties broken
// by (lock, chain, pid) ascending — a total order, so the report is
// deterministic however the rows were accumulated.
func (r *LockReport) Sort(key LockSortKey) {
	val := func(a LockRow) uint64 {
		switch key {
		case ByCount:
			return a.Count
		case BySpin:
			return a.Spins
		case ByMaxTime:
			return a.MaxWaitNs
		default:
			return a.TotalWaitNs
		}
	}
	sort.SliceStable(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		if av, bv := val(a), val(b); av != bv {
			return av > bv
		}
		if a.LockID != b.LockID {
			return a.LockID < b.LockID
		}
		if a.ChainID != b.ChainID {
			return a.ChainID < b.ChainID
		}
		return a.Pid < b.Pid
	})
}

// Format writes the report in the layout of Figure 7: a header, then per
// row the wait time (seconds), count, spins, max time, and pid on one
// line, followed by the call chain.
func (r *LockReport) Format(w io.Writer, top int) error {
	if top <= 0 || top > len(r.Rows) {
		top = len(r.Rows)
	}
	t := r.trace
	if _, err := fmt.Fprintf(w,
		"top %d contended locks by time - for full list see traceLockStatsTime\n"+
			"%-13s %6s %11s %-13s %s\n",
		top, "time", "count", "spin", "max time", "pid"); err != nil {
		return err
	}
	for i := 0; i < top; i++ {
		row := r.Rows[i]
		if _, err := fmt.Fprintf(w, "%.9f %6d %11d %.9f  0x%x\n",
			t.Seconds(row.TotalWaitNs), row.Count, row.Spins,
			t.Seconds(row.MaxWaitNs), row.Pid); err != nil {
			return err
		}
		for _, frameName := range t.ChainFrames(row.ChainID) {
			if _, err := fmt.Fprintf(w, "    %s\n", frameName); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// TotalWait returns the summed wait time over all rows — the scalar the
// tuning loop drives to zero ("we performed this operation until there
// were no more seriously contended locks").
func (r *LockReport) TotalWait() uint64 {
	var sum uint64
	for _, row := range r.Rows {
		sum += row.TotalWaitNs
	}
	return sum
}

// String renders the top-10 report.
func (r *LockReport) String() string {
	var b strings.Builder
	r.Format(&b, 10)
	return b.String()
}
