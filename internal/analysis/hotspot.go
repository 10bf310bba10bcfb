package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"k42trace/internal/event"
	"k42trace/internal/ksim"
)

// MemRow is one symbol's aggregated hardware-counter samples.
type MemRow struct {
	SymID  uint64
	Name   string
	Cycles uint64
	Instr  uint64
	Misses uint64 // local cache misses
	Remote uint64 // coherence misses
}

// MPKC returns local misses per thousand cycles, the hot-spot metric.
func (r MemRow) MPKC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return 1000 * float64(r.Misses) / float64(r.Cycles)
}

// MemReport is the memory-behavior analysis built from hardware-counter
// sample events: "the trace infrastructure may be used to study memory
// bottlenecks, memory hot-spots ... by logging hardware counter events,
// e.g., cache-line misses" (§2). Counter deltas are attributed to the
// symbol executing when each sample fired, the same statistical
// attribution the PC profile uses.
type MemReport struct {
	Rows    []MemRow
	Samples int
	Totals  MemRow
	trace   *Trace
	// agg/order back the incremental observe path; Rows is materialized
	// from them by finish (or snapshotRows). Merge operates on finished
	// Rows directly, as the parallel pipeline always merges finished
	// partial reports.
	agg   map[uint64]*MemRow
	order []uint64
}

// MemProfile aggregates TRC_MEM_HWC samples by symbol.
func (t *Trace) MemProfile() *MemReport {
	return t.memProfileOf(whole(t.Events))
}

// newMemReport returns an empty hardware-counter accumulator.
func newMemReport(t *Trace) *MemReport {
	return &MemReport{trace: t, agg: map[uint64]*MemRow{}}
}

// observe folds one event into the report if it is a hardware-counter
// sample; other events are ignored.
func (rep *MemReport) observe(e *event.Event) {
	if e.Major() != event.MajorMem || e.Minor() != ksim.EvMemHWC || len(e.Data) < 5 {
		return
	}
	sym := e.Data[0]
	r := rep.agg[sym]
	if r == nil {
		r = &MemRow{SymID: sym}
		rep.agg[sym] = r
		rep.order = append(rep.order, sym)
	}
	r.Cycles += e.Data[1]
	r.Instr += e.Data[2]
	r.Misses += e.Data[3]
	r.Remote += e.Data[4]
	rep.Totals.Cycles += e.Data[1]
	rep.Totals.Instr += e.Data[2]
	rep.Totals.Misses += e.Data[3]
	rep.Totals.Remote += e.Data[4]
	rep.Samples++
}

// snapshotRows materializes the sorted rows with symbol names resolved at
// snapshot time, without touching the accumulator.
func (rep *MemReport) snapshotRows() []MemRow {
	rows := make([]MemRow, 0, len(rep.order))
	for _, sym := range rep.order {
		r := *rep.agg[sym]
		r.Name = rep.trace.SymName(sym)
		rows = append(rows, r)
	}
	sortMemRows(rows)
	return rows
}

// memProfileOf aggregates one event stream; sample attribution has no
// cross-event state, so any partition of the trace merges exactly.
func (t *Trace) memProfileOf(v view) *MemReport {
	rep := newMemReport(t)
	for _, r := range v.runs {
		for i := range r {
			rep.observe(&r[i])
		}
	}
	if v.all {
		for i := range v.evs {
			rep.observe(&v.evs[i])
		}
	}
	for _, i := range v.pos {
		rep.observe(&v.evs[i])
	}
	rep.Rows = rep.snapshotRows()
	return rep
}

// sortMemRows orders by combined miss count descending, ties broken by
// name then symbol id — a total order, deterministic however the rows
// were accumulated.
func sortMemRows(rows []MemRow) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Misses+a.Remote != b.Misses+b.Remote {
			return a.Misses+a.Remote > b.Misses+b.Remote
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.SymID < b.SymID
	})
}

// Merge folds another partial report into rep, combining rows for the
// same symbol and re-sorting.
func (rep *MemReport) Merge(o *MemReport) {
	ix := make(map[uint64]int, len(rep.Rows))
	for i, r := range rep.Rows {
		ix[r.SymID] = i
	}
	for _, r := range o.Rows {
		i, ok := ix[r.SymID]
		if !ok {
			ix[r.SymID] = len(rep.Rows)
			rep.Rows = append(rep.Rows, r)
			continue
		}
		a := &rep.Rows[i]
		a.Cycles += r.Cycles
		a.Instr += r.Instr
		a.Misses += r.Misses
		a.Remote += r.Remote
	}
	rep.Samples += o.Samples
	rep.Totals.Cycles += o.Totals.Cycles
	rep.Totals.Instr += o.Totals.Instr
	rep.Totals.Misses += o.Totals.Misses
	rep.Totals.Remote += o.Totals.Remote
	sortMemRows(rep.Rows)
}

// topRemote returns the symbol with the most coherence misses (empty if
// no samples) — on a contended system, the lock spin loop.
func (rep *MemReport) topRemote() string {
	best := -1
	var bestV uint64
	for i, r := range rep.Rows {
		if r.Remote > bestV {
			bestV = r.Remote
			best = i
		}
	}
	if best < 0 {
		return ""
	}
	return rep.Rows[best].Name
}

// Format writes the memory hot-spot table.
func (rep *MemReport) Format(w io.Writer, top int) error {
	if top <= 0 || top > len(rep.Rows) {
		top = len(rep.Rows)
	}
	if _, err := fmt.Fprintf(w, "memory hot spots (%d hwc samples)\n%10s %10s %10s %8s  method\n",
		rep.Samples, "misses", "remote", "cycles", "mpkc"); err != nil {
		return err
	}
	// Each row, and the total after them, is "%10d %10d %10d %8.2f  %s\n",
	// built in one reused line.
	line := make([]byte, 0, 96)
	for i := 0; i <= top; i++ {
		r := rep.Totals
		r.Name = "TOTAL"
		if i < top {
			r = rep.Rows[i]
		}
		line = append(appendUint(line[:0], r.Misses, 10), ' ')
		line = append(appendUint(line, r.Remote, 10), ' ')
		line = append(appendUint(line, r.Cycles, 10), ' ')
		line = append(appendFloat(line, r.MPKC(), 2, 8), "  "...)
		line = append(append(line, r.Name...), '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// String renders the top-12 table.
func (rep *MemReport) String() string {
	var b strings.Builder
	rep.Format(&b, 12)
	return b.String()
}
