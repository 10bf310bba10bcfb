package stream

import (
	"cmp"
	"errors"
	"io"
	"slices"

	"k42trace/internal/event"
)

// A RunSource is one CPU's chain of events, handed to the merge a run at a
// time: the merge draws the chain's next run when it has copied the last
// event of the one before, so the source may decode each run into storage
// it reuses. Every event of a source is one CPU's, and no other chain of the
// same merge has that CPU. Order along the draws is not promised: a source
// with no index to tell it (a whole-file read) need not look, the merge
// notices a step back itself. A source that knows its chain to be in time
// order — or puts it in order, as a store's does run by run — spares the
// merge the sort that answers one.
type RunSource interface {
	// Next returns the chain's next run. The event structs are the
	// source's and valid until the next call of Next or Close; what their
	// payloads point to is not — the merged events keep pointing there. A
	// run may be empty; io.EOF, returned bare as a Reader does, ends the
	// chain.
	Next() ([]event.Event, error)
	// Close ends the draw, at io.EOF or before it. MergeFrom calls it once
	// on every source it was given, after the last Next.
	Close()
}

// runChain is the RunSource over runs that lie in memory: one CPU's, in the
// order given.
type runChain struct{ rest [][]event.Event }

func (c *runChain) Next() ([]event.Event, error) {
	if len(c.rest) == 0 {
		return nil, io.EOF
	}
	r := c.rest[0]
	c.rest = c.rest[1:]
	return r, nil
}

func (c *runChain) Close() {}

// watched is a pulled chain as the merge draws it: the times of every run
// are looked at on the way through, for a step back along the chain.
type watched struct {
	RunSource
	last        uint64
	steppedBack bool
}

func (w *watched) Next() ([]event.Event, error) {
	r, err := w.RunSource.Next()
	for i := range r {
		w.steppedBack, w.last = w.steppedBack || r[i].Time < w.last, r[i].Time
	}
	return r, err
}

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
// are skipped; merging nothing returns nil. It is MergeFrom with no chain
// to pull.
func MergeByTime(runs ...[]event.Event) []event.Event {
	out, _, _ := merge(0, Cap{}, nil, runs) // chains over memory do not fail
	return out
}

// MergeRuns is MergeByTime, and the runs it merged as the merge grouped
// them: cut where the CPU changes, CPUs ascending, each CPU's in the order
// given — but a CPU whose chain is not in time order is the one run the
// merge sorted it into. Read in order, a CPU's runs are its events of out
// in out's order, so a walk of one CPU at a time can read them where they
// lie. No run of byCPU is empty; byCPU is nil when out is.
func MergeRuns(runs ...[]event.Event) (out []event.Event, byCPU [][]event.Event) {
	out, byCPU, _ = merge(0, Cap{}, nil, runs) // chains over memory do not fail
	if out == nil {
		return nil, nil
	}
	return out, slices.DeleteFunc(byCPU, func(r []event.Event) bool { return len(r) == 0 })
}

// A Cap keeps a page of a merge's order instead of all of it: the events
// after a head, up to a count. The zero Cap keeps everything.
//
// A capped merge stops at the page's last event, so it is exact only if no
// pulled chain steps back after the stop: the events the merge never drew
// could belong before the ones it kept. A chain that steps back where the
// merge sees it fails the merge with ErrSteppedBack; one that would step
// back further on, the merge cannot see. Cap only chains that are in time
// order by construction — a store's, whose index promises the order between
// blocks and which sorts each block where it lies. Runs in memory are always
// exact: a CPU out of order among them is sorted before the merge starts.
type Cap struct {
	// Head, if set, is asked about the merged events in order until it first
	// answers false. The events it answers true for, a prefix of the order,
	// are dropped and do not count towards Max.
	Head func(e *event.Event) bool
	// Max is how many events after the head the merge keeps; 0 keeps all.
	Max int
}

// ErrSteppedBack fails a capped merge that saw a pulled chain's times go
// back: the page it would return is not a page of the stable order.
var ErrSteppedBack = errors.New("stream: a pulled chain stepped back under a capped merge")

// MergeFrom is the one k-way merge: MergeByTime of runs, and under the same
// order the chains of pulled, whose runs exist one at a time. The merge
// draws a pulled chain's next run when it has drained the last, so between
// a block and the answer an event struct is copied once, out of the
// storage its source decodes every run into, and never held as a run. A
// pulled chain's CPU is one no run and no other chain has.
//
// A pulled chain whose times step back (a garbled anchor, blocks out of
// sequence) is seen as it is drawn — every run's times are looked at once,
// while the run is still warm from the decode that made it — and the result
// is then stable-sorted by (Time, CPU) once, at the end. That is the same
// answer: every CPU is one chain, the merge keeps a chain's own order, and
// so events that tie on the key stand in the result as they stand in the
// concatenation — which is all a stable sort leaves to its input. A trace
// in order pays one compare an event, and the runs, which were put in order
// before the merge, nothing.
//
// hint is how many events pulled will yield, as far as the caller knows:
// the result is made to hold that and the runs, or page.Max if that is
// fewer, and grows if it was short. page picks what of the order the
// result keeps (see Cap); a capped merge stops drawing when it has kept
// page.Max events. Every source is closed when MergeFrom returns; the first
// error of a draw is returned with no events.
func MergeFrom(hint int, page Cap, pulled []RunSource, runs ...[]event.Event) ([]event.Event, error) {
	out, _, err := merge(hint, page, pulled, runs)
	return out, err
}

// merge is MergeFrom, which also returns the runs grouped by CPU as the
// merge walked them: a disordered CPU's first run is the one it was sorted
// into, and the rest of its runs are emptied.
func merge(hint int, page Cap, pulled []RunSource, runs [][]event.Event) ([]event.Event, [][]event.Event, error) {
	defer func() {
		for _, src := range pulled {
			src.Close()
		}
	}()
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
	if total == 0 && len(pulled) == 0 {
		return nil, nil, nil
	}
	// Group the runs by CPU, each CPU's in arrival order.
	slices.SortStableFunc(parts, func(a, b []event.Event) int { return cmp.Compare(a[0].CPU, b[0].CPU) })
	cpus := 0
	for i := range parts {
		if i == 0 || parts[i][0].CPU != parts[i-1][0].CPU {
			cpus++
		}
	}

	// cursor is a chain on the heap: what is left of the run being merged
	// (not empty while the chain is on the heap) and where the next comes
	// from.
	type cursor struct {
		cur []event.Event
		src RunSource
	}
	// draw moves c to its chain's next event; io.EOF when there is none.
	draw := func(c *cursor) error {
		for {
			r, err := c.src.Next()
			if err != nil {
				return err
			}
			if len(r) > 0 {
				c.cur = r
				return nil
			}
		}
	}
	h := make([]cursor, 0, cpus+len(pulled))
	inMemory := make([]runChain, 0, cpus)
	for a, b := 0, 0; a < len(parts); a = b {
		// The CPU's chain is parts[a:b]; ordered, if its times never decrease.
		ordered, last := true, uint64(0)
		for b = a; b < len(parts) && parts[b][0].CPU == parts[a][0].CPU; b++ {
			for i := range parts[b] {
				ordered, last = ordered && last <= parts[b][i].Time, parts[b][i].Time
			}
		}
		c := cursor{cur: parts[a]}
		if ordered {
			inMemory = append(inMemory, runChain{rest: parts[a+1 : b]})
		} else {
			c.cur = slices.Concat(parts[a:b]...)
			slices.SortStableFunc(c.cur, func(x, y event.Event) int { return cmp.Compare(x.Time, y.Time) })
			inMemory = append(inMemory, runChain{})
			parts[a] = c.cur
			clear(parts[a+1 : b])
		}
		c.src = &inMemory[len(inMemory)-1]
		h = append(h, c)
	}
	watch := make([]watched, len(pulled))
	for i, src := range pulled {
		watch[i].RunSource = src
		c := cursor{src: &watch[i]}
		if err := draw(&c); err == nil {
			h = append(h, c)
		} else if err != io.EOF {
			return nil, nil, err
		}
	}

	// Merged order is time first, CPU on equal stamps. Heads never tie:
	// every chain is another CPU.
	less := func(a, b *cursor) bool {
		x, y := &a.cur[0], &b.cur[0]
		return x.Time < y.Time || x.Time == y.Time && x.CPU < y.CPU
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(h) && less(&h[l], &h[min]) {
				min = l
			}
			if r < len(h) && less(&h[r], &h[min]) {
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
	size, stop := total+hint, -1 // stop: how many kept events are the page
	if page.Max > 0 {
		size, stop = min(size, page.Max), page.Max
	}
	head := page.Head
	out := make([]event.Event, 0, size)
	for len(h) > 0 {
		c := &h[0]
		if head == nil || !head(&c.cur[0]) {
			head = nil
			if out = append(out, c.cur[0]); len(out) == stop {
				break
			}
		}
		if c.cur = c.cur[1:]; len(c.cur) == 0 {
			if err := draw(c); err == io.EOF {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			} else if err != nil {
				return nil, nil, err
			}
		}
		down(0)
	}
	steppedBack := slices.ContainsFunc(watch, func(w watched) bool { return w.steppedBack })
	if steppedBack && (page.Head != nil || page.Max > 0) {
		return nil, nil, ErrSteppedBack
	}
	if len(out) == 0 {
		return nil, nil, nil
	}
	if steppedBack {
		slices.SortStableFunc(out, func(x, y event.Event) int {
			if c := cmp.Compare(x.Time, y.Time); c != 0 {
				return c
			}
			return cmp.Compare(x.CPU, y.CPU)
		})
	}
	return out, parts, nil
}
