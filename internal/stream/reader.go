package stream

import (
	"fmt"
	"io"

	"k42trace/internal/core"
	"k42trace/internal/event"
)

// Reader provides random access to a trace file. Because blocks have a
// fixed stride and every block starts at an event boundary, Block(k) is a
// single seek — "trace analysis tools can skip to any of the alignment
// points in a large trace and can begin interpreting events from that
// point". Time-based access goes through the file's FullIndex: its exact
// per-block time bounds pick the blocks a window needs (EventsBetween).
type Reader struct {
	r       io.ReaderAt
	meta    Meta
	dataOff int64 // file offset of block 0
	nBlk    int
	stride  int64
}

// NewReader validates the file header and returns a Reader. size is the
// file size in bytes (e.g. from os.FileInfo). A file that ends inside a
// block is refused, naming that block; Salvage reads what precedes the cut.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	hdr := make([]byte, fileHdrWords*8)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("stream: reading file header: %w", err)
	}
	meta, err := decodeFileHeader(hdr)
	if err != nil {
		return nil, err
	}
	rd, tail := readerOver(r, size, meta, fileHdrWords*8)
	if tail != 0 {
		return nil, blockErr(rd.nBlk, rd.blockOff(rd.nBlk), errTruncated)
	}
	return rd, nil
}

// readerOver lays a Reader over the whole blocks that a geometry — the
// file header's, or one a salvager re-derived — finds in size bytes
// starting at dataOff. tail is the length of the fragment left after them.
func readerOver(r io.ReaderAt, size int64, meta Meta, dataOff int64) (rd *Reader, tail int64) {
	stride := blockStride(meta.BufWords)
	body := max(size-dataOff, 0)
	return &Reader{r: r, meta: meta, dataOff: dataOff, nBlk: int(body / stride), stride: stride}, body % stride
}

// Meta returns the file metadata.
func (rd *Reader) Meta() Meta { return rd.meta }

// blockOff returns the file offset of block k.
func (rd *Reader) blockOff(k int) int64 { return rd.dataOff + int64(k)*rd.stride }

// NumBlocks returns the number of buffer blocks in the file.
func (rd *Reader) NumBlocks() int { return rd.nBlk }

// readBlock fills b from the start of block k and admits the block through
// Meta.blockHeader. b is a whole stride, or just the header — an anomaly
// scan touches no event data and allocates nothing per block.
func (rd *Reader) readBlock(k int, b []byte) (BlockHeader, error) {
	if k < 0 || k >= rd.nBlk {
		return BlockHeader{}, fmt.Errorf("stream: block %d out of range [0,%d)", k, rd.nBlk)
	}
	off := rd.blockOff(k)
	if n, err := rd.r.ReadAt(b, off); n < len(b) {
		return BlockHeader{}, blockErr(k, off, shortRead(err))
	}
	h, err := rd.meta.blockHeader(b)
	if err != nil {
		return BlockHeader{}, &BlockDamageError{Block: k, Offset: off, Cause: err}
	}
	return h, nil
}

// BlockBuf is a reusable scratch buffer for ReadBlockInto. The zero value
// is ready to use; buffers grow to one block stride and are then reused,
// so a decode loop holding one BlockBuf per goroutine reads blocks without
// per-call allocation.
type BlockBuf struct {
	bytes []byte
	words []uint64
}

// ReadBlockInto reads the k-th block — header plus its valid data words —
// into bb's reusable storage: one ReadAt of the whole fixed stride, no
// allocation once bb has warmed up. This is the random-access primitive
// under every reader of a trace file; it costs one seek regardless of k.
// The returned word slice aliases bb and is valid until the next
// ReadBlockInto on the same bb. core.DecodeBuffer copies payloads out, so
// a loop that keeps whole blocks may reuse bb freely; core.DecodeInto does
// not — its events alias these words and must be filtered, summarised or
// cloned before bb is read into again.
//
// A block that fails validation is a *BlockDamageError; a read failure
// carries the block index and offset.
func (rd *Reader) ReadBlockInto(k int, bb *BlockBuf) (BlockHeader, []uint64, error) {
	h, data, err := rd.readStride(k, bb)
	if err != nil {
		return BlockHeader{}, nil, err
	}
	return h, bb.load(data, rd.meta.BufWords), nil
}

// load parses a block's data bytes into bb's reusable words, sized once
// for the largest block the file can hold.
func (bb *BlockBuf) load(data []byte, bufWords int) []uint64 {
	if cap(bb.words) < bufWords {
		bb.words = make([]uint64, bufWords)
	}
	return wordsInto(bb.words, data)
}

// readStride reads the k-th block's whole stride into bb and returns its
// header and the bytes of its valid data words, which alias bb.
func (rd *Reader) readStride(k int, bb *BlockBuf) (BlockHeader, []byte, error) {
	if int64(len(bb.bytes)) < rd.stride {
		bb.bytes = make([]byte, rd.stride)
	}
	b := bb.bytes[:rd.stride]
	h, err := rd.readBlock(k, b)
	if err != nil {
		return BlockHeader{}, nil, err
	}
	return h, b[blockHdrWords*8 : (blockHdrWords+h.NWords)*8], nil
}

// Block is ReadBlockInto into fresh storage: the returned slice is owned
// by the caller. Hot loops hold a BlockBuf instead.
func (rd *Reader) Block(k int) (BlockHeader, []uint64, error) {
	var bb BlockBuf
	return rd.ReadBlockInto(k, &bb)
}

// Events decodes the k-th block into events that share nothing with the
// file's bytes.
func (rd *Reader) Events(k int) ([]event.Event, core.DecodeStats, error) {
	h, words, err := rd.Block(k)
	if err != nil {
		return nil, core.DecodeStats{}, err
	}
	evs, st := core.DecodeBuffer(h.CPU, words)
	return evs, st, nil
}

// ReadAll decodes the whole file and returns events merged across CPUs in
// timestamp order (stable within equal stamps: by CPU then stream order).
// Every offline tool reads this way; EventsBetween reads only a window's
// blocks. ReadAll is the one-goroutine form of ReadAllParallel; both
// produce bit-identical output.
func (rd *Reader) ReadAll() ([]event.Event, core.DecodeStats, error) {
	return rd.ReadAllParallel(1)
}

// ReadAllParallel reads the whole file like ReadAll, fanning the blocks out
// over up to `workers` goroutines (workers <= 0 means GOMAXPROCS). This is
// the read-side counterpart of the paper's write-side scalability story:
// because every block starts at an alignment boundary with a decodable
// event, blocks are independent units, so a multi-gigabyte trace is read,
// admitted and sized on all cores instead of through a serial scan. What
// the workers keep of a block is its header, its payload words and a count
// of its events; the events are decoded under the merge, one resumable
// decoder per CPU, straight into a result made at its exact size — an event
// struct is written once, and no per-block run exists.
//
// It is the strict reading of the scan Salvage reads tolerantly: the first
// unreadable block, in file order, fails the read. The output is
// bit-identical for any worker count — the stable (Time, CPU) sort of the
// blocks' decodes in file order, whether or not a CPU's blocks are in time
// order — and its payloads alias the reader's private copy of each block's
// words, which lives as long as they do: nothing of the file's bytes.
//
// The underlying io.ReaderAt must support concurrent ReadAt calls
// (os.File and bytes.Reader both do).
func (rd *Reader) ReadAllParallel(workers int) ([]event.Event, core.DecodeStats, error) {
	blocks, errs := rd.decodeAll(workers, keepWords, nil)
	var st core.DecodeStats
	if err := firstErr(errs); err != nil {
		return nil, st, err
	}
	evs := mergeChains(blocks)
	for k := range blocks {
		st.Add(blocks[k].st)
	}
	return evs, st, nil
}

// EventsBetween returns events with from <= Time < to, merged across CPUs,
// decoding only the blocks whose exact time bounds in fi overlap the
// window (BlockSummary.Overlaps). Blocks are decoded into one scratch, and
// what each holds of the window is cloned out as a run — a block that holds
// nothing of it leaves none — so a narrow window's answer pins no block's
// words.
func (rd *Reader) EventsBetween(fi *FullIndex, from, to uint64) ([]event.Event, error) {
	var sc BlockScratch
	var runs [][]event.Event
	for k := range fi.Blocks {
		if !fi.Blocks[k].Overlaps(from, to) {
			continue
		}
		b, err := rd.DecodeBlockInto(k, &sc)
		if err != nil {
			return nil, err
		}
		in := b.Events[:0]
		for j := range b.Events {
			if t := b.Events[j].Time; t >= from && t < to {
				in = append(in, b.Events[j])
			}
		}
		if len(in) > 0 {
			runs = append(runs, event.Clone(in))
		}
	}
	return MergeByTime(runs...), nil
}

// Anomalies returns the headers of all blocks flagged anomalous — the
// post-processing side of garble detection.
func (rd *Reader) Anomalies() ([]BlockHeader, error) {
	var out []BlockHeader
	scratch := make([]byte, blockHdrWords*8)
	for k := 0; k < rd.nBlk; k++ {
		h, err := rd.readBlock(k, scratch)
		if err != nil {
			return nil, err
		}
		if h.Anomalous() {
			out = append(out, h)
		}
	}
	return out, nil
}
