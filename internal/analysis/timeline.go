package analysis

import (
	"fmt"
	"slices"
	"strings"

	"k42trace/internal/event"
)

// Timeline is the kmon-style per-CPU view of Figure 4: a bird's-eye row
// per processor showing what the system was doing over time, plus marked
// occurrences of selected events. "The timeline view provides the
// developer with a visual sense of what is occurring in the system and how
// active the system is."
type Timeline struct {
	Start, End uint64
	BucketNs   uint64
	Width      int
	// Cells[cpu][i] is the dominant mode in bucket i (ModeKind(-1) if no
	// data).
	Cells [][]ModeKind
	// Markers maps an event name to its bucket positions.
	Markers map[string][]int
	// marks are the names in Markers in the order they were asked for:
	// the order of the marker rows.
	marks []string
	trace *Trace
}

// Timeline buckets the trace into width columns. markNames selects event
// names (e.g. "TRC_USER_RUN_UL_LOADER") whose occurrences are marked, the
// feature used to see "the points at which particular events occurred".
func (t *Trace) Timeline(width int, markNames ...string) *Timeline {
	first, last := t.Span()
	return t.TimelineRange(first, last, width, markNames...)
}

// TimelineRange renders only the [from, to] window — the zoom operation:
// "the user can zoom in or out to get a sense of the system behavior at
// different granularities."
func (t *Trace) TimelineRange(from, to uint64, width int, markNames ...string) *Timeline {
	if width <= 0 {
		width = 80
	}
	first, last := from, to
	if last <= first {
		last = first + 1
	}
	nCPU := MaxCPU(t.Events) + 1
	tl := &Timeline{
		Start:    first,
		End:      last,
		Width:    width,
		BucketNs: (last - first + uint64(width) - 1) / uint64(width),
		Markers:  map[string][]int{},
		trace:    t,
	}
	if tl.BucketNs == 0 {
		tl.BucketNs = 1
	}
	acc := make([]map[int]map[ModeKind]uint64, nCPU)
	for i := range acc {
		acc[i] = map[int]map[ModeKind]uint64{}
	}
	bucketOf := func(ts uint64) int {
		b := int((ts - first) / tl.BucketNs)
		if b >= width {
			b = width - 1
		}
		return b
	}
	wantMark := map[string]bool{}
	for _, n := range markNames {
		wantMark[n] = true
	}
	Walk(t.Events, nCPU-1, Hooks{
		Span: func(cpu int, st *CPUState, from, to uint64) {
			// Clip to the rendered window.
			if to <= tl.Start || from >= tl.End {
				return
			}
			if from < tl.Start {
				from = tl.Start
			}
			if to > tl.End {
				to = tl.End
			}
			mode := st.Mode()
			for ts := from; ts < to; {
				b := bucketOf(ts)
				bEnd := first + uint64(b+1)*tl.BucketNs
				if bEnd > to {
					bEnd = to
				}
				m := acc[cpu][b]
				if m == nil {
					m = map[ModeKind]uint64{}
					acc[cpu][b] = m
				}
				m[mode] += bEnd - ts
				if bEnd == ts {
					break
				}
				ts = bEnd
			}
		},
		Event: func(e *event.Event, st *CPUState) {
			if len(wantMark) == 0 || e.Time < tl.Start || e.Time > tl.End {
				return
			}
			if d := t.Reg.Lookup(e.Major(), e.Minor()); d != nil && wantMark[d.Name] {
				tl.Markers[d.Name] = append(tl.Markers[d.Name], bucketOf(e.Time))
			}
		},
	})
	for _, n := range markNames {
		if _, ok := tl.Markers[n]; ok && !slices.Contains(tl.marks, n) {
			tl.marks = append(tl.marks, n)
		}
	}
	tl.Cells = make([][]ModeKind, nCPU)
	for cpu := range tl.Cells {
		row := make([]ModeKind, width)
		for i := range row {
			row[i] = ModeKind(-1)
			var best ModeKind
			var bestNs uint64
			for m, ns := range acc[cpu][i] {
				if ns > bestNs || (ns == bestNs && bestNs > 0 && m < best) {
					best, bestNs = m, ns
				}
			}
			if bestNs > 0 {
				row[i] = best
			}
		}
		tl.Cells[cpu] = row
	}
	return tl
}

// modeChar maps a mode to its ASCII cell.
func modeChar(m ModeKind) byte {
	switch m {
	case ModeUser:
		return 'U'
	case ModeSyscall:
		return 'k'
	case ModeIPC:
		return 'S'
	case ModePgflt:
		return 'p'
	case ModeIRQ:
		return 'i'
	case ModeIdle:
		return '.'
	case ModeLockWait:
		return 'L'
	}
	return ' '
}

// modeColor maps a mode to its SVG fill.
func modeColor(m ModeKind) string {
	switch m {
	case ModeUser:
		return "#4c78a8" // user: blue
	case ModeSyscall:
		return "#e45756" // kernel: red (the "10ms chunks of red" anecdote)
	case ModeIPC:
		return "#f58518" // server: orange
	case ModePgflt:
		return "#b279a2"
	case ModeIRQ:
		return "#bab0ac"
	case ModeIdle:
		return "#eeeeee"
	case ModeLockWait:
		return "#54a24b"
	}
	return "#ffffff"
}

// ASCII renders the timeline for a terminal.
func (tl *Timeline) ASCII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %.6fs .. %.6fs  (%c=user %c=kernel %c=server %c=pgflt %c=lockwait %c=idle)\n",
		tl.trace.Seconds(tl.Start), tl.trace.Seconds(tl.End),
		'U', 'k', 'S', 'p', 'L', '.')
	for cpu, row := range tl.Cells {
		fmt.Fprintf(&b, "cpu%-3d |", cpu)
		for _, m := range row {
			if m < 0 {
				b.WriteByte(' ')
			} else {
				b.WriteByte(modeChar(m))
			}
		}
		b.WriteString("|\n")
	}
	for _, name := range tl.marks {
		buckets := tl.Markers[name]
		marks := make([]byte, tl.Width)
		for i := range marks {
			marks[i] = ' '
		}
		for _, bk := range buckets {
			marks[bk] = '^'
		}
		// "Other aspects of the tool allow specific events to be marked
		// and counted."
		fmt.Fprintf(&b, "%7s %s %s (%d)\n", "", marks, name, len(buckets))
	}
	return b.String()
}

// SVG renders the timeline as a standalone SVG document. Mask-change
// epochs (TRACE_CTRL_MASK_CHANGE markers) are drawn as dashed vertical
// lines, matching the interactive HTML renderer's epoch boundaries.
func (tl *Timeline) SVG() string {
	const cellW, rowH, pad = 8, 14, 4
	w := tl.Width*cellW + 2*pad
	h := len(tl.Cells)*(rowH+2) + 2*pad + 16*len(tl.Markers)
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">`+"\n", w, h)
	for cpu, row := range tl.Cells {
		y := pad + cpu*(rowH+2)
		for i, m := range row {
			if m < 0 {
				continue
			}
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`+"\n",
				pad+i*cellW, y, cellW, rowH, modeColor(m))
		}
	}
	rowsBottom := pad + len(tl.Cells)*(rowH+2)
	for _, ep := range tl.trace.MaskEpochs {
		if ep.Time < tl.Start || ep.Time > tl.End {
			continue
		}
		bk := int((ep.Time - tl.Start) / tl.BucketNs)
		if bk >= tl.Width {
			bk = tl.Width - 1
		}
		x := pad + bk*cellW + cellW/2
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#7a5fb5" stroke-dasharray="4 3"/>`+"\n",
			x, pad, x, rowsBottom)
	}
	my := rowsBottom + 12
	for _, name := range tl.marks {
		for _, bk := range tl.Markers[name] {
			x := pad + bk*cellW + cellW/2
			fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
				x, pad, x, my-10)
		}
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10">%s</text>`+"\n", pad, my, name)
		my += 16
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// Utilization returns the fraction of covered time each CPU spent
// non-idle, a quick scalar for "how active the system is".
func (tl *Timeline) Utilization() []float64 {
	out := make([]float64, len(tl.Cells))
	for cpu, row := range tl.Cells {
		busy, total := 0, 0
		for _, m := range row {
			if m < 0 {
				continue
			}
			total++
			if m != ModeIdle {
				busy++
			}
		}
		if total > 0 {
			out[cpu] = float64(busy) / float64(total)
		}
	}
	return out
}
