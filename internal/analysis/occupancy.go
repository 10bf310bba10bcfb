package analysis

import (
	"k42trace/internal/event"
)

// NumModes is the size of the ModeKind space (ModeUser..ModeLockWait).
const NumModes = int(ModeLockWait) + 1

// Occupancy is the quantitative form of the timeline: exact per-mode,
// per-CPU, and per-window time accounting over a half-open range of a
// trace, plus per-major event counts. It is the substrate the diff
// subsystem compares two runs on — where Timeline picks one dominant mode
// per bucket for rendering, Occupancy keeps the full distribution, so two
// runs can be subtracted without quantization loss.
//
// All accumulation is per-CPU span arithmetic, so per-CPU partial
// occupancies Merge into exactly the whole-stream result — the same
// property the five analyses use for their -j fan-out.
type Occupancy struct {
	// Start and End delimit the accounted range [Start, End) in trace time.
	Start, End uint64
	// Windows is the number of equal subdivisions of [Start, End).
	Windows int
	// ModeNs is total time per mode summed over all CPUs.
	ModeNs [NumModes]uint64
	// CPUMode is time per mode for each CPU.
	CPUMode [][NumModes]uint64
	// WindowMode is time per mode for each window, summed over CPUs.
	WindowMode [][NumModes]uint64
	// MajorCount counts events per major class inside the range.
	MajorCount [event.NumMajors]uint64
	// Events is the total event count inside the range.
	Events uint64
}

// totalNs returns the accounted CPU time (all modes, all CPUs).
func (o *Occupancy) totalNs() uint64 {
	var sum uint64
	for _, ns := range o.ModeNs {
		sum += ns
	}
	return sum
}

// ModeShare returns each mode's fraction of the accounted CPU time.
func (o *Occupancy) ModeShare() [NumModes]float64 {
	return shareVec(o.ModeNs)
}

// WindowShare returns window w's per-mode fractions (zeros if the window
// holds no accounted time).
func (o *Occupancy) WindowShare(w int) [NumModes]float64 {
	if w < 0 || w >= len(o.WindowMode) {
		return [NumModes]float64{}
	}
	return shareVec(o.WindowMode[w])
}

func shareVec(ns [NumModes]uint64) [NumModes]float64 {
	var total uint64
	for _, v := range ns {
		total += v
	}
	var out [NumModes]float64
	if total == 0 {
		return out
	}
	for m, v := range ns {
		out[m] = float64(v) / float64(total)
	}
	return out
}

// OccupancyRange accounts the trace over [from, to) with the given number
// of windows (<=0 means 1).
func (t *Trace) OccupancyRange(from, to uint64, windows int) *Occupancy {
	o := newOccupancy(from, to, windows, MaxCPU(t.Events)+1)
	o.feed(whole(t.Events), len(o.CPUMode)-1)
	return o
}

// OccupancyRangeParallel is OccupancyRange fanned over per-CPU streams
// with at most workers goroutines; the result is identical to the
// sequential form for any worker count.
func (t *Trace) OccupancyRangeParallel(from, to uint64, windows, workers int) *Occupancy {
	nCPU := len(t.perCPU())
	o := newOccupancy(from, to, windows, nCPU)
	mergePerCPU(t, workers, func(v view, maxCPU int) *Occupancy {
		p := newOccupancy(from, to, windows, nCPU)
		p.feed(v, maxCPU)
		return p
	}, o.Merge)
	return o
}

func newOccupancy(from, to uint64, windows, nCPU int) *Occupancy {
	if to <= from {
		to = from + 1
	}
	if windows <= 0 {
		windows = 1
	}
	if nCPU < 1 {
		nCPU = 1
	}
	return &Occupancy{
		Start:      from,
		End:        to,
		Windows:    windows,
		CPUMode:    make([][NumModes]uint64, nCPU),
		WindowMode: make([][NumModes]uint64, windows),
	}
}

// feed walks one view into the accumulator. Spans are clipped to
// [Start, End) and distributed exactly across the windows they overlap.
func (o *Occupancy) feed(v view, maxCPU int) {
	span := o.End - o.Start
	w64 := uint64(o.Windows)
	NewStreamWalker(maxCPU, Hooks{
		Span: func(cpu int, st *CPUState, from, to uint64) {
			if to <= o.Start || from >= o.End {
				return
			}
			if from < o.Start {
				from = o.Start
			}
			if to > o.End {
				to = o.End
			}
			mode := st.Mode()
			d := to - from
			o.ModeNs[mode] += d
			if cpu < len(o.CPUMode) {
				o.CPUMode[cpu][mode] += d
			}
			// Distribute across windows. Timestamp ts belongs to window
			// (ts-Start)*Windows/span; the first timestamp of window w+1 is
			// Start + ceil((w+1)*span/Windows), so each slice below stays
			// within one window and the partition is exact.
			for ts := from; ts < to; {
				w := int((ts - o.Start) * w64 / span)
				if w >= o.Windows {
					w = o.Windows - 1
				}
				wEnd := o.Start + ((uint64(w)+1)*span+w64-1)/w64
				if wEnd > to {
					wEnd = to
				}
				o.WindowMode[w][mode] += wEnd - ts
				ts = wEnd
			}
		},
		Event: func(e *event.Event, st *CPUState) {
			if e.Time < o.Start || e.Time >= o.End {
				return
			}
			o.MajorCount[e.Major()]++
			o.Events++
		},
	}).feed(v)
}

// Merge folds a partial occupancy (same range and window count) into o.
func (o *Occupancy) Merge(p *Occupancy) {
	for m := range o.ModeNs {
		o.ModeNs[m] += p.ModeNs[m]
	}
	for c := range p.CPUMode {
		if c >= len(o.CPUMode) {
			o.CPUMode = append(o.CPUMode, [NumModes]uint64{})
		}
		for m := range p.CPUMode[c] {
			o.CPUMode[c][m] += p.CPUMode[c][m]
		}
	}
	for w := range p.WindowMode {
		if w < len(o.WindowMode) {
			for m := range p.WindowMode[w] {
				o.WindowMode[w][m] += p.WindowMode[w][m]
			}
		}
	}
	for m := range o.MajorCount {
		o.MajorCount[m] += p.MajorCount[m]
	}
	o.Events += p.Events
}

// ModeName returns the mode's display name for index m of the occupancy
// vectors.
func ModeName(m int) string { return ModeKind(m).String() }
