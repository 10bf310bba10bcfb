// Package diff compares two traces of "the same" workload — a coarse vs a
// tuned kernel, two mask epochs, two producers — and reports where time
// went differently. The paper sells the unified trace as the substrate for
// every performance question; this subsystem makes the *differential*
// question first-class: align the runs, normalize their clocks, subtract
// their occupancy/lock/profile/process aggregates, and score window-by-
// window divergence, reusing the analysis package's Merge/Parallel
// machinery for the -j fan-out.
package diff

import (
	"fmt"
	"math"
	"sort"

	"k42trace/internal/analysis"
)

// Alignment describes how the two runs were put on a common footing. Each
// run keeps its own timebase; the aligned range [Start, End] is chosen per
// run from shared anchor instants, and window k of one run corresponds to
// window k of the other — so a constant clock-rate drift between the runs
// (virtual vs wall clocks, different TSC rates) is normalized away by
// construction rather than by rescaling timestamps.
type Alignment struct {
	// Kind is how anchors were chosen: "anchor:<NAME>" (named events),
	// "mask-epochs" (TRACE_CTRL_MASK_CHANGE markers), or "span" (whole-run
	// fallback).
	Kind string `json:"kind"`
	// AnchorsA and AnchorsB are the number of anchor instants found in each
	// run (0 under span alignment).
	AnchorsA int `json:"anchorsA"`
	AnchorsB int `json:"anchorsB"`
	// Scale is the drift factor: A's aligned range duration over B's. 1.0
	// means the runs cover their aligned ranges at the same rate.
	Scale float64 `json:"scale"`
}

// anchorTimes collects the instants of the given named events in a trace,
// in time order.
func anchorTimes(t *analysis.Trace, names []string) []uint64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []uint64
	for i := range t.Events {
		e := &t.Events[i]
		if d := t.Reg.Lookup(e.Major(), e.Minor()); d != nil && want[d.Name] {
			out = append(out, e.Time)
		}
	}
	sortU64(out)
	return out
}

// epochTimes collects the mask-epoch instants of a trace, in time order.
func epochTimes(t *analysis.Trace) []uint64 {
	out := make([]uint64, 0, len(t.MaskEpochs))
	for _, ep := range t.MaskEpochs {
		out = append(out, ep.Time)
	}
	sortU64(out)
	return out
}

func sortU64(v []uint64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

// alignedRange picks one run's aligned [start, end] from its anchors,
// falling back to the full span when anchors leave a degenerate range.
func alignedRange(t *analysis.Trace, anchors []uint64) (start, end uint64) {
	first, last := t.Span()
	start, end = first, last
	if len(anchors) >= 1 {
		start = anchors[0]
	}
	if len(anchors) >= 2 {
		end = anchors[len(anchors)-1]
	}
	if end <= start {
		// A single anchor (or coincident anchors) aligns offsets only; the
		// range runs from the anchor to the end of the trace.
		end = last
		if end <= start {
			end = start + 1
		}
	}
	return start, end
}

// align computes the Alignment and per-run aligned ranges for two traces.
func align(a, b *analysis.Trace, anchorNames []string) (al Alignment, aStart, aEnd, bStart, bEnd uint64) {
	var aAnch, bAnch []uint64
	switch {
	case len(anchorNames) > 0:
		aAnch, bAnch = anchorTimes(a, anchorNames), anchorTimes(b, anchorNames)
		al.Kind = "anchor:" + anchorNames[0]
		if len(anchorNames) > 1 {
			al.Kind = fmt.Sprintf("anchor:%s(+%d)", anchorNames[0], len(anchorNames)-1)
		}
		if len(aAnch) == 0 || len(bAnch) == 0 {
			// Named anchors missing from one run: fall back to span
			// alignment rather than comparing misaligned windows.
			al.Kind = "span"
			aAnch, bAnch = nil, nil
		}
	case len(a.MaskEpochs) > 0 && len(b.MaskEpochs) > 0:
		aAnch, bAnch = epochTimes(a), epochTimes(b)
		al.Kind = "mask-epochs"
	default:
		al.Kind = "span"
	}
	al.AnchorsA, al.AnchorsB = len(aAnch), len(bAnch)
	aStart, aEnd = alignedRange(a, aAnch)
	bStart, bEnd = alignedRange(b, bAnch)
	al.Scale = float64(aEnd-aStart) / float64(bEnd-bStart)
	if math.IsInf(al.Scale, 0) || math.IsNaN(al.Scale) {
		al.Scale = 1
	}
	return al, aStart, aEnd, bStart, bEnd
}
