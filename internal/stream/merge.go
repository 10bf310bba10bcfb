package stream

import (
	"cmp"
	"slices"

	"k42trace/internal/event"
)

// MergeByTime returns the events of all the runs ordered by (Time, CPU),
// stably: events that tie keep the order of their runs, and within one run
// their own. That is exactly what a stable sort of the runs' concatenation
// produces, for the price of a k-way merge: O(n log k) for k CPUs.
//
// A run is a stretch of events in arrival order — a block's own exact-size
// slice, a part of a cached answer, a per-CPU stream — and the one form
// events take between decode and merge: runs are read where they lie and
// each event is copied once, into the result. One CPU's runs, in the order
// given, are its chain; chains may interleave, and a run of several CPUs'
// events is cut where the CPU changes. Only a chain that is not in time
// order (garbled stamps, overlapping uploads) is concatenated and
// stable-sorted, that CPU alone: the key contains the CPU, so that is the
// order the whole-slice sort gives it.
//
// The result is a fresh slice whose payloads are the runs' own. Empty runs
// are skipped; merging nothing returns nil.
func MergeByTime(runs ...[]event.Event) []event.Event {
	total := 0
	parts := make([][]event.Event, 0, len(runs))
	for _, r := range runs {
		total += len(r)
		for len(r) > 0 {
			n := 1
			for n < len(r) && r[n].CPU == r[0].CPU {
				n++
			}
			parts, r = append(parts, r[:n]), r[n:]
		}
	}
	if total == 0 {
		return nil
	}
	// Group the runs by CPU, each CPU's in arrival order.
	slices.SortStableFunc(parts, func(a, b []event.Event) int { return cmp.Compare(a[0].CPU, b[0].CPU) })

	// chain is a CPU's cursor: what is left of the run being merged (not
	// empty while the chain is on the heap) and the runs after it.
	type chain struct {
		cur  []event.Event
		rest [][]event.Event
	}
	var h []*chain
	for a, b := 0, 0; a < len(parts); a = b {
		// The CPU's chain is parts[a:b]; ordered, if its times never decrease.
		ordered, last := true, uint64(0)
		for b = a; b < len(parts) && parts[b][0].CPU == parts[a][0].CPU; b++ {
			for i := range parts[b] {
				ordered, last = ordered && last <= parts[b][i].Time, parts[b][i].Time
			}
		}
		c := &chain{cur: parts[a], rest: parts[a+1 : b]}
		if !ordered {
			c = &chain{cur: slices.Concat(parts[a:b]...)}
			slices.SortStableFunc(c.cur, func(x, y event.Event) int { return cmp.Compare(x.Time, y.Time) })
		}
		h = append(h, c)
	}

	// Merged order is time first, CPU on equal stamps. Heads never tie:
	// every chain is another CPU.
	less := func(a, b *chain) bool {
		x, y := &a.cur[0], &b.cur[0]
		return x.Time < y.Time || x.Time == y.Time && x.CPU < y.CPU
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(h) && less(h[l], h[min]) {
				min = l
			}
			if r < len(h) && less(h[r], h[min]) {
				min = r
			}
			if min == i {
				return
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]event.Event, 0, total)
	for len(h) > 0 {
		c := h[0]
		out = append(out, c.cur[0])
		if c.cur = c.cur[1:]; len(c.cur) == 0 {
			if len(c.rest) > 0 {
				c.cur, c.rest = c.rest[0], c.rest[1:]
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
		}
		down(0)
	}
	return out
}
