package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"k42trace/internal/event"
	"k42trace/internal/ksim"
)

// ProfileRow is one line of the statistical execution profile: a sample
// count and the function it landed in.
type ProfileRow struct {
	Count int
	SymID uint64
	Name  string
}

// Profile is the per-process histogram of Figure 6, driven by the
// PC-sampling events: "an event that logs the program counter at random
// times is used to drive statistical execution profiling. Post-processing
// analysis maps the pc values to C function names and provides a sorted
// histogram of the routines that were statistically most active."
type Profile struct {
	Pid     uint64
	Total   int
	Rows    []ProfileRow
	mapped  string
	samples map[uint64]int
}

// Profile builds the execution profile for one pid (use ^uint64(0) for all
// pids combined). Samples are attributed to the domain pid recorded in the
// sample event itself.
func (t *Trace) Profile(pid uint64) *Profile {
	p := t.profileOf(pid, whole(t.Events))
	p.finish(t)
	return p
}

// profileOf counts samples over one event stream; the rows are built by
// finish. Sample counting has no cross-event state, so any partition of
// the trace profiles independently and merges.
func (t *Trace) profileOf(pid uint64, v view) *Profile {
	p := newProfile(pid)
	for _, r := range v.runs {
		for i := range r {
			p.observe(&r[i])
		}
	}
	if v.all {
		for i := range v.evs {
			p.observe(&v.evs[i])
		}
	}
	for _, i := range v.pos {
		p.observe(&v.evs[i])
	}
	return p
}

// newProfile returns an empty profile accumulator for one pid filter.
func newProfile(pid uint64) *Profile {
	return &Profile{Pid: pid, samples: map[uint64]int{}}
}

// observe counts one event into the profile if it is a PC sample passing
// the pid filter; any other event is ignored, so a live feed can push
// every event through unconditionally.
func (p *Profile) observe(e *event.Event) {
	if e.Major() != event.MajorSample || e.Minor() != ksim.EvSamplePC || len(e.Data) < 2 {
		return
	}
	if p.Pid != ^uint64(0) && e.Data[1] != p.Pid {
		return
	}
	p.samples[e.Data[0]]++
	p.Total++
}

// Merge folds another partial profile (same pid filter) into p. Call
// finish afterwards — or use ProfileParallel, which does.
func (p *Profile) Merge(o *Profile) {
	for sym, n := range o.samples {
		p.samples[sym] += n
	}
	p.Total += o.Total
}

// finish materializes the sorted histogram rows from the sample counts.
// Ties are broken by name then symbol id, so the ordering is total and
// independent of map iteration order.
func (p *Profile) finish(t *Trace) {
	p.Rows = p.snapshotRows(t)
	p.mapped = t.ProcName(p.Pid)
}

// snapshotRows builds the sorted histogram without touching the
// accumulator, so a live snapshot can be taken while sampling continues.
func (p *Profile) snapshotRows(t *Trace) []ProfileRow {
	rows := make([]ProfileRow, 0, len(p.samples))
	for sym, n := range p.samples {
		rows = append(rows, ProfileRow{Count: n, SymID: sym, Name: t.SymName(sym)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		if rows[i].Name != rows[j].Name {
			return rows[i].Name < rows[j].Name
		}
		return rows[i].SymID < rows[j].SymID
	})
	return rows
}

// Format writes the histogram in Figure 6's layout.
func (p *Profile) Format(w io.Writer, top int) error {
	if top <= 0 || top > len(p.Rows) {
		top = len(p.Rows)
	}
	hdr := fmt.Sprintf("histogram for pid 0x%x mapped filename %s", p.Pid, p.mapped)
	if p.Pid == ^uint64(0) {
		hdr = "histogram for all processes"
	}
	if _, err := fmt.Fprintf(w, "%s\n%6s method\n", hdr, "count"); err != nil {
		return err
	}
	for _, r := range p.Rows[:top] {
		if _, err := fmt.Fprintf(w, "%6d %s\n", r.Count, r.Name); err != nil {
			return err
		}
	}
	return nil
}

// topName returns the most-sampled symbol name (empty if no samples).
func (p *Profile) topName() string {
	if len(p.Rows) == 0 {
		return ""
	}
	return p.Rows[0].Name
}

// String renders the top-12 histogram.
func (p *Profile) String() string {
	var b strings.Builder
	p.Format(&b, 12)
	return b.String()
}
