package store

import (
	"cmp"
	"io"
	"slices"

	"k42trace/internal/event"
	"k42trace/internal/stream"
)

// A block reaches an answer in one of three ways, and query picks by two
// rules: a run is cloned only if it is part of a block or somebody keeps it,
// and nothing is emitted that might have to be taken back.
//
//   - Kept: the cache is on (the run outlives the query) or the query is
//     NoPrune (the baseline the others are checked against). scanSegment
//     clones the block's matches as a run.
//   - Filtered: the block's index summary cannot prove that every event
//     matches. scanSegment clones the few that do.
//   - Pulled: the summary proves every event matches, nobody keeps the run,
//     and the index shows the CPU's chain to be in time order. The block is
//     not touched by the scan: a chain decodes it under the merge, when the
//     merge has drained the block before, and the structs are copied once,
//     from the chain's scratch into the answer.
//
// A CPU whose chain the index shows out of order (a tenant's uploads
// overlap in time) is all cloned, and the merge sorts that CPU as before.

// wholeMatch reports whether bs proves that every event of its block
// matches p: nothing to test an event for, and the block's exact time
// bounds inside [From, to).
func wholeMatch(bs *stream.BlockSummary, p *Params, to uint64) bool {
	return !p.HasMajor && !p.HasMinor && !p.HasPid && bs.MinTime >= p.From && bs.MaxTime < to
}

// pullSet is the merging side of one query: the runs its scan cloned, and
// — when nobody keeps them — which CPUs pull, the blocks the scan left
// them, and their chains. The zero pullSet pulls nothing.
type pullSet struct {
	s  *Store
	p  Params // the scan's
	to uint64

	cpus []bool          // by CPU: its whole-matching blocks are pulled
	left [][]pulledBlock // by pinned segment: the blocks the scan left, in file order

	chains  []*chain // by CPU
	sources []stream.RunSource
	runs    [][]event.Event // of the CPUs that do not pull, where they lie
	hint    int             // events the chains will yield
	need    int             // events in the largest block that may match
}

// pulledBlock is a block the scan left for the merge to pull.
type pulledBlock struct {
	at int // how many of its segment's runs lie before it in file order
	rd *stream.Reader
	k  int
	bs *stream.BlockSummary
}

// link is one step of a chain: a run the scan cloned, or a block to pull.
type link struct {
	run []event.Event
	pulledBlock
}

// plan opens the pinned segments and decides, by CPU, whether the query
// pulls the CPU's whole-matching blocks: the blocks that may match lie
// along the CPU's chain — segments in pinned order, blocks in file order —
// in time order by their exact bounds, and one of them is whole.
func (ps *pullSet) plan(pinned []*segment, workers int) error {
	type chainState struct {
		maxTime         uint64
		disordered, any bool
	}
	var st []chainState
	for _, sg := range pinned {
		_, fi, err := sg.open(workers)
		if err != nil {
			return err
		}
		for k := range fi.Blocks {
			bs := &fi.Blocks[k]
			if !blockMayMatch(bs, ps.p, ps.to) {
				continue
			}
			for len(st) <= bs.CPU {
				st = append(st, chainState{})
			}
			c := &st[bs.CPU]
			c.disordered = c.disordered || bs.MinTime < c.maxTime
			c.maxTime = max(c.maxTime, bs.MaxTime)
			c.any = c.any || wholeMatch(bs, &ps.p, ps.to)
			ps.need = max(ps.need, int(bs.Events))
		}
	}
	ps.cpus = make([]bool, len(st))
	for cpu := range st {
		ps.cpus[cpu] = st[cpu].any && !st[cpu].disordered
	}
	ps.left = make([][]pulledBlock, len(pinned))
	ps.chains = make([]*chain, len(st))
	return nil
}

// add files pinned segment i's runs, and the blocks the scan left of it, in
// file order: a CPU that pulls takes all its blocks, cloned or not, through
// one chain; the other CPUs' runs are merged where they lie.
func (ps *pullSet) add(i int, runs [][]event.Event) {
	chainOf := func(cpu int) *chain {
		if cpu >= len(ps.cpus) || !ps.cpus[cpu] {
			return nil
		}
		if ps.chains[cpu] == nil {
			ps.chains[cpu] = &chain{s: ps.s, p: ps.p, to: ps.to, need: ps.need}
			ps.sources = append(ps.sources, ps.chains[cpu])
		}
		return ps.chains[cpu]
	}
	var left []pulledBlock
	if ps.left != nil {
		left = ps.left[i]
	}
	ps.runs = slices.Grow(ps.runs, len(runs))
	for ri := 0; ; ri++ {
		for ; len(left) > 0 && left[0].at == ri; left = left[1:] {
			c := chainOf(left[0].bs.CPU)
			c.links = append(c.links, link{pulledBlock: left[0]})
			ps.hint += int(left[0].bs.Events)
		}
		if ri == len(runs) {
			return
		}
		if c := chainOf(runs[ri][0].CPU); c != nil {
			c.links = append(c.links, link{run: runs[ri]})
			ps.hint += len(runs[ri])
		} else {
			ps.runs = append(ps.runs, runs[ri])
		}
	}
}

// merge is the one merge every query ends in. A chain takes its scratch off
// the store's free list for as long as the merge runs, so the list is told
// to hold one a chain.
//
// A page caps the merge exactly: the plan pulls only CPUs whose chains the
// index shows in time order, and a chain sorts each run where it lies, so
// no chain steps back after the merge stops. A capped merge closes the
// chains it stopped drawing.
//
// An aggregation's merge that pulls nothing also returns the runs it
// merged, grouped by CPU (stream.MergeRuns): every one lies in memory, and
// the aggregation walks them in place of per-CPU positions of the answer.
// A listing never walks them, so it keeps none.
func (ps *pullSet) merge(page stream.Cap) (evs []event.Event, byCPU [][]event.Event, err error) {
	if len(ps.sources) == 0 && !ps.p.listing() && page.Head == nil && page.Max == 0 {
		evs, byCPU = stream.MergeRuns(ps.runs...)
		return evs, byCPU, nil
	}
	ps.s.scratch.Hold(len(ps.sources))
	evs, err = stream.MergeFrom(ps.hint, page, ps.sources, ps.runs...)
	return evs, nil, err
}

// chain is one CPU's blocks under the merge, a stream.RunSource that draws
// each link when the merge asks for it: cloned runs go out as they are, and
// a pulled block is decoded into a scratch off the store's free list, put
// through the exact filter — the summary that called it whole is then only
// a promise about allocation, not about the answer — and its payloads moved
// into a slab of their own, so that what the merge copies out of the
// scratch points at nothing the next draw overwrites. A run out of time
// order inside (a rotted block) is sorted where it lies: the index put
// nothing between its bounds.
type chain struct {
	s     *Store
	p     Params
	to    uint64
	links []link
	next  int
	// need is the event count of the largest block the query may decode:
	// the scratch is sized for it once, whichever chain picks it up next
	// time.
	need int

	sc *stream.BlockScratch // taken at the first pulled block, put back by Close
}

func (c *chain) Next() ([]event.Event, error) {
	if c.next == len(c.links) {
		return nil, io.EOF
	}
	l := &c.links[c.next]
	c.next++
	run := l.run
	if l.rd != nil {
		if c.sc == nil {
			c.sc = c.s.scratch.Get()
		}
		if cap(c.sc.Events) < c.need {
			c.sc.Events = make([]event.Event, 0, c.need)
		}
		b, err := l.rd.DecodeBlockInto(l.k, c.sc)
		if err != nil {
			return nil, err
		}
		run = keepMatching(b.Events, l.bs.EntryPid, c.p, c.to)
		event.OwnPayloads(run)
	}
	// Cloned or decoded, the run is this query's own to sort.
	for i := 1; i < len(run); i++ {
		if run[i-1].Time > run[i].Time {
			slices.SortStableFunc(run, byTime)
			break
		}
	}
	return run, nil
}

func byTime(a, b event.Event) int { return cmp.Compare(a.Time, b.Time) }

// Close puts the scratch back.
func (c *chain) Close() {
	if c.sc != nil {
		c.s.scratch.Put(c.sc)
	}
}
