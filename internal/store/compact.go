package store

import (
	"fmt"

	"k42trace/internal/stream"
)

// killHook, when non-nil, is invoked at the killpoints of ingest and
// compaction. Crash tests install a hook that dies mid-mutation — after a
// block of a segment file went out ("ingest-mid-segment",
// "compact-mid-write"), around the swap ("compact-before-swap",
// "compact-after-swap") — to prove the manifest swap is the only commit
// point.
var killHook func(stage string)

func killpoint(stage string) {
	if killHook != nil {
		killHook(stage)
	}
}

// CompactResult reports one compaction pass.
type CompactResult struct {
	Tenant string `json:"tenant"`
	// Runs is the number of merges performed; In and Out count segments.
	Runs int `json:"runs"`
	In   int `json:"segments_in"`
	Out  int `json:"segments_out"`
	// Events moved (conserved exactly: the pass aborts on any mismatch).
	Events uint64 `json:"events"`
}

// Compact merges adjacent small segments. Only time-adjacent segments of
// the same upload merge — CPU slots and clock bases are meaningful within
// one upload, not across them — and only while the combined size stays
// under MaxSegmentBytes. Each merge is one catalog swap; queries racing
// the pass see the old or the new view, never a mix.
func (s *Store) Compact(tenantName string) (*CompactResult, error) {
	t := s.getTenant(tenantName)
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoTenant, tenantName)
	}
	// One maintenance pass at a time per tenant: a concurrent pass would
	// pick the same run and commit the merge twice (every event in the run
	// duplicated), and compaction racing GC could re-add segments GC just
	// expired, busting the retention budget.
	t.maint.Lock()
	defer t.maint.Unlock()
	res := &CompactResult{Tenant: tenantName}
	for {
		merged, in, events, err := s.compactOne(t)
		if err != nil {
			return res, err
		}
		if !merged {
			break
		}
		res.Runs++
		res.In += in
		res.Out++
		res.Events += events
		s.metrics.compact(tenantName, in)
	}
	return res, nil
}

// compactOne finds and merges the first eligible run, reporting whether
// anything merged.
func (s *Store) compactOne(t *tenant) (merged bool, in int, events uint64, err error) {
	// Pick the run and pin its segments under the catalog lock.
	t.mu.Lock()
	run := findRun(t.man.Segments, s.opt.MaxSegmentBytes)
	if len(run) < 2 {
		t.mu.Unlock()
		return false, 0, 0, nil
	}
	segs := make([]*segment, 0, len(run))
	for _, si := range run {
		sg := t.segs[si.ID]
		if sg == nil {
			t.mu.Unlock()
			return false, 0, 0, fmt.Errorf("store: segment %d in manifest but not live", si.ID)
		}
		sg.acquire()
		segs = append(segs, sg)
	}
	outID := t.man.NextSeg
	t.man.NextSeg++
	t.mu.Unlock()
	defer func() {
		for _, sg := range segs {
			sg.release()
		}
	}()

	// Rebuild the merged segment cpu-major so the per-CPU renumbered
	// sequences stay contiguous; every block keeps its recorded entry pid,
	// so attribution is byte-identical to the inputs. Each block is read into
	// the scratch, digested there a chunk of events at a time, and written
	// from the same words: the digest's decode is what notices a rotted
	// input before the merge commits, and its event count is what the count
	// below adds up. Whatever fails from here on, the output goes.
	var want uint64
	for _, si := range run {
		want += si.Events
	}
	sb, err := newSegBuilder(t.dir, run[0].Meta())
	if err != nil {
		return false, 0, 0, err
	}
	defer func() {
		if err != nil {
			sb.abort()
		}
	}()
	if err := sb.begin(outID); err != nil {
		return false, 0, 0, err
	}
	sc := s.scratch.Get()
	defer s.scratch.Put(sc)
	for cpu := 0; cpu < sb.meta.CPUs; cpu++ {
		for _, sg := range segs {
			rd, fi, err := sg.open(s.opt.Workers)
			if err != nil {
				return false, 0, 0, err
			}
			for k := range fi.Blocks {
				bs := &fi.Blocks[k]
				if bs.CPU != cpu {
					continue
				}
				h, words, err := rd.ReadBlockInto(k, &sc.Buf)
				if err != nil {
					return false, 0, 0, err
				}
				d, _ := stream.DigestBlock(h.CPU, words, sc)
				d.Enter(bs.EntryPid)
				if err := sb.wr.WriteBlock(sb.place(h, &d), words); err != nil {
					return false, 0, 0, err
				}
				killpoint("compact-mid-write")
			}
		}
	}
	if sb.events != want {
		return false, 0, 0, fmt.Errorf("store: compaction would change event count (%d != %d)", sb.events, want)
	}
	out, err := sb.finish(run[0].Upload, s.opt.Now().Unix())
	if err != nil {
		return false, 0, 0, err
	}

	killpoint("compact-before-swap")
	removeIDs := make([]uint64, len(run))
	for i, si := range run {
		removeIDs[i] = si.ID
	}
	t.mu.Lock()
	err = t.swap([]*segment{out}, removeIDs)
	t.mu.Unlock()
	if err != nil {
		return false, 0, 0, err
	}
	killpoint("compact-after-swap")
	return true, len(run), want, nil
}

// findRun returns the first maximal run of >= 2 time-adjacent segments
// sharing an upload whose combined bytes fit maxBytes. Segments are in
// (MinTime, ID) order.
func findRun(segs []SegmentInfo, maxBytes int64) []SegmentInfo {
	for i := 0; i < len(segs); {
		j := i + 1
		bytes := segs[i].Bytes
		for j < len(segs) && segs[j].Upload == segs[i].Upload && bytes+segs[j].Bytes <= maxBytes {
			bytes += segs[j].Bytes
			j++
		}
		if j-i >= 2 {
			return segs[i:j]
		}
		i = j
	}
	return nil
}
