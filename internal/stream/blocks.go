package stream

import (
	"cmp"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"k42trace/internal/core"
	"k42trace/internal/event"
)

// SalvagedBlock is one block of a trace: its header, and whatever of its
// raw payload words, its decoded events and their digest the read that
// produced it keeps (DecodeBlockInto: words and events, its scratch's;
// SalvageBlocks: the digest alone). From a salvage the header is the one
// SalvageTo would have written — a clipped truncated tail is re-marked
// partial with NWords matching the surviving words. Where a block holds
// both Words and Events, the events' payloads alias the words: whoever
// keeps the events keeps the words, unmodified.
type SalvagedBlock struct {
	Hdr    BlockHeader
	Words  []uint64
	Events []event.Event
	// Digest stands in for Events in a scan that keeps none (SalvageBlocks).
	// It is a pointer so that the reads that do keep events do not carry
	// its size in every block.
	Digest *BlockDigest
	// events is how many events Words hold, counted from their headers by a
	// scan that decodes none (keepWords); st is the block's decode
	// statistics, there once something has decoded it.
	events int
	st     core.DecodeStats
}

// BlockScratch is one scan worker's reusable storage: the block being read
// and the events decoded from it, whose payloads alias the block. The next
// block overwrites both, so what a scan keeps it copies out first. A digest
// (DigestBlock) uses the first chainChunk slots of Events and no more; a
// whole-block decode (DecodeBlockInto) grows it to the block. The zero value
// is ready to use; a caller that knows its largest block may size Events up
// front so that no decode grows it.
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
// worker that read it has moved on to the next.
type keep int

const (
	// keepWords: the reader's own copy of the block's payload words, and how
	// many events they hold by a count over their headers (core.CountEvents)
	// — no event. The reads that return events: the events are decoded under
	// the merge, from these words into the answer (mergeChains), and their
	// payloads alias them.
	keepWords keep = iota
	// keepDigest: no words and no events — the words are the worker's
	// scratch and gone with the next block, and the events never exist
	// beyond a chunk of them (DigestBlock) — only the block's digest and
	// where in the source it lies. What a rewrite or a store ingest needs: it
	// plans from the digests and copies each block from the source to where
	// it goes (Writer.CopyBlock), so it never holds a block's words and never
	// reads an event twice.
	keepDigest
)

// keepBlock fills b, whose header is set, from the bytes of its payload
// words. data and sc are the scan worker's, reused for the next block; off
// is the block's byte offset in the source.
func (rd *Reader) keepBlock(b *SalvagedBlock, what keep, off int64, data []byte, sc *BlockScratch) {
	switch what {
	case keepWords:
		b.Words = bytesToWords(data)
		b.events = core.CountEvents(b.Words)
	case keepDigest:
		d, st := DigestBlock(b.Hdr.CPU, sc.Buf.load(data, rd.meta.BufWords), sc)
		d.Off = off
		b.Digest, b.st = &d, st
	}
}

// decodeAll is the one scan under every whole-file read: each block is
// read and validated into its own slot, in file order, and keeps there what
// the caller asked for. A block that could not be read leaves its slot
// empty and its error in errs; the strict reader fails on the first of
// those and the salvager quarantines each, and that is all that separates
// them.
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

// chainChunk is how many events a block chain lends the merge at a time:
// enough that a draw is rare beside the events it yields, small enough that
// every CPU's scratch together is nothing beside the answer.
const chainChunk = 256

// blockChain is one CPU's blocks under the merge, a RunSource: the blocks'
// words are decoded a chunk at a time into the chain's scratch by one
// resumable decoder, and a block's decode statistics are written to its
// slot when the decoder leaves it.
type blockChain struct {
	blocks []*SalvagedBlock // the blocks still to decode, the first being decoded
	dec    core.Decoder
	chunk  []event.Event
}

func (c *blockChain) Next() ([]event.Event, error) {
	if c.dec.Done() {
		if len(c.blocks) == 0 {
			return nil, io.EOF
		}
		c.dec.Reset(c.blocks[0].Hdr.CPU, c.blocks[0].Words)
	}
	c.chunk = c.dec.Fill(c.chunk[:0])
	if c.dec.Done() {
		c.blocks[0].st = c.dec.Stats()
		c.blocks = c.blocks[1:]
	}
	return c.chunk, nil
}

func (c *blockChain) Close() {}

// mergeChains is the tail every whole-file read ends in. blocks hold each
// CPU's blocks in stream order (blocks of different CPUs may interleave),
// their words kept and their events counted (keepWords). Every CPU is one
// chain of the one merge, which draws the events out of the words as it
// places them, so each event is written once, into a result made at its
// exact size: the stable (Time, CPU) sort of the concatenation of the
// blocks' decodes. The events' payloads alias the blocks' words, and every
// block's decode statistics are filled in on the way.
func mergeChains(blocks []SalvagedBlock) []event.Event {
	byCPU := make([]*SalvagedBlock, len(blocks))
	for k := range blocks {
		byCPU[k] = &blocks[k]
	}
	slices.SortStableFunc(byCPU, func(a, b *SalvagedBlock) int { return cmp.Compare(a.Hdr.CPU, b.Hdr.CPU) })
	var sources []RunSource
	total := 0
	for a, b := 0, 0; a < len(byCPU); a = b {
		events := 0
		for b = a; b < len(byCPU) && byCPU[b].Hdr.CPU == byCPU[a].Hdr.CPU; b++ {
			events += byCPU[b].events
		}
		// A chain that holds less than a chunk lends all it has: the scratch
		// is never more than the answer.
		sources = append(sources, &blockChain{blocks: byCPU[a:b], chunk: make([]event.Event, 0, min(events, chainChunk))})
		total += events
	}
	out, _ := MergeFrom(total, Cap{}, sources) // chains over memory do not fail; a disordered file is sorted whole
	return out
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
