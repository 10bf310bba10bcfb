package stream

import (
	"cmp"
	"slices"

	"k42trace/internal/event"
)

// byTimeCPU is the order of a merged trace: time first, CPU on equal
// stamps. Every merged view — a whole-file read, a salvage, a time window,
// a store query across segments — is the stable form of this one order.
func byTimeCPU(a, b *event.Event) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	return cmp.Compare(a.CPU, b.CPU)
}

// inOrder reports whether evs is already in merged order — the common case
// for a per-CPU stream, guaranteed by the reservation loop's in-loop
// timestamp re-read.
func inOrder(evs []event.Event) bool {
	for i := 1; i < len(evs); i++ {
		if byTimeCPU(&evs[i-1], &evs[i]) > 0 {
			return false
		}
	}
	return true
}

// sortInOrder puts evs in merged order, keeping the order of ties.
func sortInOrder(evs []event.Event) {
	slices.SortStableFunc(evs, func(a, b event.Event) int { return byTimeCPU(&a, &b) })
}

// MergeByTime returns the events of all the streams ordered by (Time, CPU),
// stably: events that tie keep the order of their streams, and within one
// stream their own. That is exactly what a stable sort of the streams'
// concatenation produces, and it is how the streams are merged when one
// of them is out of order — a store query's per-segment parts are
// CPU-major. Per-CPU streams, each already in order, take the k-way merge
// instead.
//
// Empty streams are skipped; merging nothing returns nil.
func MergeByTime(streams ...[]event.Event) []event.Event {
	total := 0
	sorted := true
	for _, s := range streams {
		total += len(s)
		sorted = sorted && inOrder(s)
	}
	if sorted {
		return mergeSorted(streams)
	}
	out := make([]event.Event, 0, total)
	for _, s := range streams {
		out = append(out, s...)
	}
	sortInOrder(out)
	return out
}

// mergeSorted is MergeByTime for streams known to be in order: a k-way
// heap merge, O(n log k) for k streams rather than O(n log n) — and k is
// the CPU count, typically tiny next to n.
func mergeSorted(streams [][]event.Event) []event.Event {
	type cursor struct {
		evs  []event.Event
		i, n int // next event; position of the stream among the inputs
	}
	var total int
	cursors := make([]cursor, len(streams)) // one allocation backs the heap's entries
	h := make([]*cursor, 0, len(streams))
	for n, s := range streams {
		if len(s) == 0 {
			continue
		}
		total += len(s)
		cursors[n] = cursor{evs: s, n: n}
		h = append(h, &cursors[n])
	}
	if total == 0 {
		return nil
	}

	less := func(a, b *cursor) bool {
		if c := byTimeCPU(&a.evs[a.i], &b.evs[b.i]); c != 0 {
			return c < 0
		}
		return a.n < b.n
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
		out = append(out, c.evs[c.i])
		c.i++
		if c.i == len(c.evs) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}
