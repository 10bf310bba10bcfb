package analysis

import (
	"fmt"
	"slices"
	"strings"
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
// different granularities." It buckets ExportTimelineRange's clipped spans
// and marker times, so the two views of a window cannot disagree.
func (t *Trace) TimelineRange(from, to uint64, width int, markNames ...string) *Timeline {
	if width <= 0 {
		width = 80
	}
	x := t.ExportTimelineRange(from, to, markNames...)
	tl := &Timeline{
		Start:    x.Start,
		End:      x.End,
		Width:    width,
		BucketNs: max((x.End-x.Start+uint64(width)-1)/uint64(width), 1),
		Markers:  map[string][]int{},
		trace:    t,
	}
	bucketOf := func(ts uint64) int { return min(int((ts-tl.Start)/tl.BucketNs), width-1) }
	for _, n := range markNames {
		times, ok := x.Markers[n]
		if !ok || slices.Contains(tl.marks, n) {
			continue
		}
		tl.marks = append(tl.marks, n)
		for _, ts := range times {
			tl.Markers[n] = append(tl.Markers[n], bucketOf(ts))
		}
	}
	tl.Cells = make([][]ModeKind, len(x.CPUs))
	ns := make([][NumModes]uint64, width)
	for cpu, spans := range x.CPUs {
		clear(ns)
		for _, s := range spans {
			for ts := s.From; ts < s.To; {
				b := bucketOf(ts)
				end := min(tl.Start+uint64(b+1)*tl.BucketNs, s.To)
				ns[b][s.Mode] += end - ts
				ts = end
			}
		}
		row := make([]ModeKind, width)
		for i := range row {
			row[i] = ModeKind(-1)
			var bestNs uint64
			for m, n := range ns[i] {
				if n > bestNs { // ties go to the lower mode
					row[i], bestNs = ModeKind(m), n
				}
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
