package stream

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"k42trace/internal/core"
	"k42trace/internal/event"
)

// ReadAllParallel decodes the whole file like ReadAll, fanning block
// decodes out over up to `workers` goroutines (workers <= 0 means
// GOMAXPROCS). This is the read-side counterpart of the paper's write-side
// scalability story: because every block starts at an alignment boundary
// with a decodable event, blocks are independent decode units, so a
// multi-gigabyte trace can be interpreted on all cores instead of through
// a serial scan.
//
// The output is bit-identical to the sequential reader for any worker
// count. The old global sort has been replaced by a cheaper equivalent:
// blocks are grouped into per-CPU streams (each already monotone in time
// thanks to the in-loop timestamp re-read; garbled blocks that break
// monotonicity are repaired with a per-CPU stable sort), and the streams
// are combined with a k-way heap merge — O(n log k) in the number of CPU
// streams rather than O(n log n) in events. A stable sort by (Time, CPU)
// over the block-order concatenation orders events by (Time, CPU,
// stream position); the merge produces exactly that order.
//
// The underlying io.ReaderAt must support concurrent ReadAt calls
// (os.File and bytes.Reader both do).
func (rd *Reader) ReadAllParallel(workers int) ([]event.Event, core.DecodeStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > rd.nBlk {
		workers = rd.nBlk
	}
	type blockRes struct {
		cpu int
		evs []event.Event
		st  core.DecodeStats
		err error
	}
	results := make([]blockRes, rd.nBlk)
	decode := func(k int, bb *BlockBuf) {
		h, words, err := rd.ReadBlockInto(k, bb)
		if err != nil {
			results[k].err = err
			return
		}
		evs, st := core.DecodeBuffer(h.CPU, words)
		results[k] = blockRes{cpu: h.CPU, evs: evs, st: st}
	}
	if workers <= 1 {
		var bb BlockBuf
		for k := 0; k < rd.nBlk; k++ {
			decode(k, &bb)
			if results[k].err != nil {
				break
			}
		}
	} else {
		// Dynamic block assignment: workers pull the next undecoded block,
		// so a slow block (cache miss, large payload) does not stall a
		// statically assigned shard. Each worker owns one BlockBuf, so the
		// hot loop does not allocate. Errors are recorded per block and
		// reported in block order below, matching the sequential reader.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var bb BlockBuf
				for {
					k := int(next.Add(1)) - 1
					if k >= rd.nBlk {
						return
					}
					decode(k, &bb)
				}
			}()
		}
		wg.Wait()
	}

	var st core.DecodeStats
	for k := range results {
		if results[k].err != nil {
			return nil, st, results[k].err
		}
		s := results[k].st
		st.Events += s.Events
		st.FillerEvents += s.FillerEvents
		st.FillerWords += s.FillerWords
		st.SkippedWords += s.SkippedWords
	}

	// Group blocks into per-CPU streams in file order. Every block carries
	// exactly one CPU's events, so sizing touches blocks, not events, and
	// each stream is allocated once, at its final length.
	sizes := map[int]int{}
	for k := range results {
		sizes[results[k].cpu] += len(results[k].evs)
	}
	perCPU := map[int][]event.Event{}
	var cpus []int
	for k := range results {
		if len(results[k].evs) == 0 {
			continue
		}
		c := results[k].cpu
		if _, ok := perCPU[c]; !ok {
			cpus = append(cpus, c)
			perCPU[c] = make([]event.Event, 0, sizes[c])
		}
		perCPU[c] = append(perCPU[c], results[k].evs...)
		results[k].evs = nil // the block's copy is garbage from here on
	}
	sort.Ints(cpus)
	streams := make([][]event.Event, 0, len(cpus))
	for _, c := range cpus {
		s := perCPU[c]
		if !timesNonDecreasing(s) {
			// Garbled blocks can produce out-of-order stamps within a CPU
			// stream; restore the order the global sort would have imposed.
			sort.SliceStable(s, func(i, j int) bool { return s[i].Time < s[j].Time })
		}
		streams = append(streams, s)
	}
	return MergeByTime(streams...), st, nil
}

// timesNonDecreasing reports whether a stream is already monotone in time
// — the common case for per-CPU streams, guaranteed by the reservation
// loop's in-loop timestamp re-read.
func timesNonDecreasing(evs []event.Event) bool {
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			return false
		}
	}
	return true
}
