package stream

import (
	"runtime"
	"sync"
	"sync/atomic"

	"k42trace/internal/core"
	"k42trace/internal/event"
)

// SalvagedBlock is one decoded block of a trace: its header, and whatever
// of its raw payload words, its decoded events and their digest the scan
// that produced it keeps (SalvageBlocks: the digest alone). From a salvage
// the header is the one SalvageTo would have written — a clipped truncated
// tail is re-marked partial with NWords matching the surviving words. Where
// a block holds both Words and Events, the events' payloads alias the
// words: whoever keeps the events keeps the words, unmodified.
type SalvagedBlock struct {
	Hdr    BlockHeader
	Words  []uint64
	Events []event.Event
	// Digest stands in for Events in a scan that keeps none (SalvageBlocks).
	// It is a pointer so that the scans that do keep events do not carry
	// its size in every block.
	Digest *BlockDigest
	st     core.DecodeStats
}

// BlockScratch is one scan worker's reusable storage: the block being read
// and the events decoded from it, whose payloads alias the block. The next
// block overwrites both, so what a scan keeps it copies out first. The
// zero value is ready to use; a caller that knows its largest block may
// size Events up front so that no decode grows it.
type BlockScratch struct {
	Buf    BlockBuf
	Events []event.Event
}

// ScratchList is a free list of BlockScratch that outlives the calls that
// draw on it, so that a long-lived owner — a store — scans, ingests and
// queries without making a block's worth of bytes, words and events each
// time. It holds at most a bound's worth and drops what is put back beyond
// that. A nil *ScratchList is the list that holds nothing: Get makes a
// scratch and Put drops it. It is not a sync.Pool, which a GC empties: what
// a call allocated would follow the collector.
type ScratchList struct {
	mu   sync.Mutex
	free []*BlockScratch
	max  int
}

// NewScratchList returns an empty list that holds up to max scratches.
func NewScratchList(max int) *ScratchList { return &ScratchList{max: max} }

// Hold raises the list's bound to n, for a caller about to take that many
// at once: what it puts back is then there for the next such caller.
func (l *ScratchList) Hold(n int) {
	l.mu.Lock()
	l.max = max(l.max, n)
	l.mu.Unlock()
}

// Get takes a scratch off the list, or makes one.
func (l *ScratchList) Get() *BlockScratch {
	if l != nil {
		l.mu.Lock()
		defer l.mu.Unlock()
		if n := len(l.free); n > 0 {
			sc := l.free[n-1]
			l.free[n-1] = nil
			l.free = l.free[:n-1]
			return sc
		}
	}
	return new(BlockScratch)
}

// Put returns sc to the list; a full list drops it.
func (l *ScratchList) Put(sc *BlockScratch) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.free) < l.max {
		l.free = append(l.free, sc)
	}
	l.mu.Unlock()
}

// DecodeBlockInto reads and decodes the k-th block into sc, allocating
// nothing once sc has warmed up. The returned block's Words and Events are
// sc's own and are valid until the next call on the same sc: filter,
// summarise or clone (event.Clone) before then.
func (rd *Reader) DecodeBlockInto(k int, sc *BlockScratch) (SalvagedBlock, error) {
	h, words, err := rd.ReadBlockInto(k, &sc.Buf)
	if err != nil {
		return SalvagedBlock{}, err
	}
	b := SalvagedBlock{Hdr: h, Words: words}
	sc.Events, b.st = core.DecodeInto(sc.Events[:0], h.CPU, words)
	b.Events = sc.Events
	return b, nil
}

// eachBlock is the one fan-out over a file's blocks: fn runs once per
// block on up to `workers` goroutines (<= 0 means GOMAXPROCS), each of
// which owns one scratch, taken off free for the call (a nil list makes
// it). Because every block starts at an alignment
// boundary with a decodable event, blocks are independent units of work.
// Workers pull the next unvisited block, so a slow block (cache miss,
// large payload) does not stall a statically assigned shard; fn writes
// what it learns to a per-block slot, which makes the outcome the same
// for any worker count. errs[k] is what fn returned for block k; errs is
// nil when no block failed.
func (rd *Reader) eachBlock(workers int, free *ScratchList, fn func(k int, sc *BlockScratch) error) (errs []error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var mu sync.Mutex
	visit := func(k int, sc *BlockScratch) {
		if err := fn(k, sc); err != nil {
			mu.Lock()
			if errs == nil {
				errs = make([]error, rd.nBlk)
			}
			errs[k] = err
			mu.Unlock()
		}
	}
	if workers = min(workers, rd.nBlk); workers <= 1 {
		sc := free.Get()
		defer free.Put(sc)
		for k := 0; k < rd.nBlk; k++ {
			visit(k, sc)
		}
		return errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := free.Get()
			defer free.Put(sc)
			for {
				k := int(next.Add(1)) - 1
				if k >= rd.nBlk {
					return
				}
				visit(k, sc)
			}
		}()
	}
	wg.Wait()
	return errs
}

// keep is what a whole-file scan holds on to of each block once the
// worker that decoded it has moved on to the next.
type keep int

const (
	// keepEvents: the events, their payloads copied into a slab of exactly
	// their size (core.DecodeBuffer), and no words — about one header word
	// per event less to hold on to. The strict reader's.
	keepEvents keep = iota
	// keepAliased: the block's own copy of the payload words, and events
	// whose payloads alias it. Salvage's, which returns events.
	keepAliased
	// keepDigest: no words and no events — both are the worker's scratch
	// and gone with the next block — only the events' digest, the block's
	// anchor and where in the source it lies. What a rewrite or a store
	// ingest needs: it plans from the digests and copies each block from
	// the source to where it goes (Writer.CopyBlock), so it never holds a
	// block's words and never reads an event twice.
	keepDigest
)

// keepBlock fills b, whose header is set, from the bytes of its payload
// words. data and sc are the scan worker's, reused for the next block; off
// is the block's byte offset in the source.
func (rd *Reader) keepBlock(b *SalvagedBlock, what keep, off int64, data []byte, sc *BlockScratch) {
	switch what {
	case keepEvents:
		b.Events, b.st = core.DecodeBuffer(b.Hdr.CPU, sc.Buf.load(data, rd.meta.BufWords))
	case keepAliased:
		b.Words = bytesToWords(data)
		b.Events, b.st = core.DecodeInto(nil, b.Hdr.CPU, b.Words)
	case keepDigest:
		words := sc.Buf.load(data, rd.meta.BufWords)
		sc.Events, b.st = core.DecodeInto(sc.Events[:0], b.Hdr.CPU, words)
		d := DigestEvents(sc.Events)
		d.Start, d.Anchored = AnchorTimeWords(words)
		d.Off = off
		b.Digest = &d
	}
}

// decodeAll is the one scan under every whole-file read: each block is
// read, validated and decoded into its own slot, in file order, and keeps
// there what the caller asked for. A block that could not be read leaves
// its slot empty and its error in errs; the strict reader fails on the
// first of those and the salvager quarantines each, and that is all that
// separates them.
func (rd *Reader) decodeAll(workers int, what keep, free *ScratchList) ([]SalvagedBlock, []error) {
	blocks := make([]SalvagedBlock, rd.nBlk)
	errs := rd.eachBlock(workers, free, func(k int, sc *BlockScratch) error {
		h, data, err := rd.readStride(k, &sc.Buf)
		if err != nil {
			return err
		}
		blocks[k].Hdr = h
		rd.keepBlock(&blocks[k], what, rd.blockOff(k), data, sc)
		return nil
	})
	return blocks, errs
}

// mergeBlocks is the tail every whole-trace read ends in. blocks hold each
// CPU's blocks in stream order (blocks of different CPUs may interleave),
// and each block's exact-size event slice is one run of the merge, which
// copies the events once, from where the decode put them. The result is
// the stable (Time, CPU) sort of the blocks' concatenation.
func mergeBlocks(blocks []SalvagedBlock) []event.Event {
	runs := make([][]event.Event, len(blocks))
	for k := range blocks {
		runs[k] = blocks[k].Events
	}
	return MergeByTime(runs...)
}

// firstErr returns the error of the lowest-numbered block that has one.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func addStats(dst *core.DecodeStats, s core.DecodeStats) {
	dst.Events += s.Events
	dst.FillerEvents += s.FillerEvents
	dst.FillerWords += s.FillerWords
	dst.SkippedWords += s.SkippedWords
}
