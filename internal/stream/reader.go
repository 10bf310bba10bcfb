package stream

import (
	"fmt"
	"io"
	"sort"

	"k42trace/internal/core"
	"k42trace/internal/event"
)

// Reader provides random access to a trace file. Because blocks have a
// fixed stride and every block starts at an event boundary, Block(k) is a
// single seek — "trace analysis tools can skip to any of the alignment
// points in a large trace and can begin interpreting events from that
// point" — and time-based access is a binary search over a small index
// built from block headers alone, without reading event data.
type Reader struct {
	r      io.ReaderAt
	meta   Meta
	nBlk   int
	stride int64
}

// NewReader validates the file header and returns a Reader. size is the
// file size in bytes (e.g. from os.FileInfo).
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	hdr := make([]byte, fileHdrWords*8)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("stream: reading file header: %w", err)
	}
	meta, err := decodeFileHeader(hdr)
	if err != nil {
		return nil, err
	}
	stride := blockStride(meta.BufWords)
	body := size - fileHdrWords*8
	if body < 0 || body%stride != 0 {
		return nil, fmt.Errorf("stream: file size %d not a whole number of blocks", size)
	}
	return &Reader{r: r, meta: meta, nBlk: int(body / stride), stride: stride}, nil
}

// Meta returns the file metadata.
func (rd *Reader) Meta() Meta { return rd.meta }

// blockOff returns the file offset of block k.
func (rd *Reader) blockOff(k int) int64 { return fileHdrWords*8 + int64(k)*rd.stride }

// blockErr wraps a per-block failure with the block index and file offset,
// so a truncated or corrupted file reports where it went wrong instead of
// a bare io.ErrUnexpectedEOF.
func blockErr(k int, off int64, err error) error {
	return fmt.Errorf("stream: block %d (offset %d): %w", k, off, err)
}

// NumBlocks returns the number of buffer blocks in the file.
func (rd *Reader) NumBlocks() int { return rd.nBlk }

// Header reads just the k-th block's header — cheap (32 bytes), used to
// build indexes without touching event data.
func (rd *Reader) Header(k int) (BlockHeader, error) {
	return rd.headerInto(k, make([]byte, blockHdrWords*8))
}

// headerInto is Header with a caller-supplied scratch buffer (at least
// blockHdrWords*8 bytes), so index builds and anomaly scans do not
// allocate per block.
func (rd *Reader) headerInto(k int, scratch []byte) (BlockHeader, error) {
	if k < 0 || k >= rd.nBlk {
		return BlockHeader{}, fmt.Errorf("stream: block %d out of range [0,%d)", k, rd.nBlk)
	}
	b := scratch[:blockHdrWords*8]
	if _, err := rd.r.ReadAt(b, rd.blockOff(k)); err != nil {
		return BlockHeader{}, blockErr(k, rd.blockOff(k), err)
	}
	h, err := decodeBlockHeader(b)
	if err != nil {
		return BlockHeader{}, blockErr(k, rd.blockOff(k), err)
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

// ReadBlockInto reads the k-th block like Block, but into bb's reusable
// storage: one ReadAt of the whole fixed stride (header and payload
// together), no allocation once bb has warmed up. The returned word slice
// aliases bb and is valid until the next ReadBlockInto on the same bb.
// core.DecodeBuffer copies payloads out, so a loop that keeps whole blocks
// may reuse bb freely; core.DecodeInto does not — its events alias these
// words and must be filtered, summarised or cloned before bb is read into
// again.
func (rd *Reader) ReadBlockInto(k int, bb *BlockBuf) (BlockHeader, []uint64, error) {
	if k < 0 || k >= rd.nBlk {
		return BlockHeader{}, nil, fmt.Errorf("stream: block %d out of range [0,%d)", k, rd.nBlk)
	}
	if int64(len(bb.bytes)) < rd.stride {
		bb.bytes = make([]byte, rd.stride)
	}
	b := bb.bytes[:rd.stride]
	if _, err := rd.r.ReadAt(b, rd.blockOff(k)); err != nil {
		return BlockHeader{}, nil, blockErr(k, rd.blockOff(k), err)
	}
	h, err := decodeBlockHeader(b)
	if err != nil {
		return h, nil, blockErr(k, rd.blockOff(k), err)
	}
	if h.NWords > rd.meta.BufWords {
		return h, nil, blockErr(k, rd.blockOff(k),
			fmt.Errorf("claims %d words > bufWords %d", h.NWords, rd.meta.BufWords))
	}
	if cap(bb.words) < h.NWords {
		bb.words = make([]uint64, rd.meta.BufWords)
	}
	w := bb.words[:h.NWords]
	data := b[blockHdrWords*8:]
	for i := range w {
		w[i] = getWord(data, i)
	}
	return h, w, nil
}

// Block reads the k-th block: header plus its valid data words. This is
// the random-access primitive; it costs one seek regardless of k. The
// returned slice is freshly owned by the caller; hot loops should use
// ReadBlockInto with a reused BlockBuf instead.
func (rd *Reader) Block(k int) (BlockHeader, []uint64, error) {
	var bb BlockBuf
	return rd.ReadBlockInto(k, &bb)
}

// Events decodes the k-th block.
func (rd *Reader) Events(k int) ([]event.Event, core.DecodeStats, error) {
	var bb BlockBuf
	return rd.eventsInto(k, &bb)
}

// eventsInto decodes the k-th block through a reused BlockBuf.
func (rd *Reader) eventsInto(k int, bb *BlockBuf) ([]event.Event, core.DecodeStats, error) {
	h, words, err := rd.ReadBlockInto(k, bb)
	if err != nil {
		return nil, core.DecodeStats{}, err
	}
	evs, st := core.DecodeBuffer(h.CPU, words)
	return evs, st, nil
}

// BlockTime returns the start time of block k: the full timestamp in its
// leading clock anchor. It reads only the anchor words, not the whole
// block.
func (rd *Reader) BlockTime(k int) (uint64, error) {
	if k < 0 || k >= rd.nBlk {
		return 0, fmt.Errorf("stream: block %d out of range", k)
	}
	b := make([]byte, 16) // anchor header + full timestamp
	off := rd.blockOff(k) + blockHdrWords*8
	if _, err := rd.r.ReadAt(b, off); err != nil {
		return 0, blockErr(k, off, err)
	}
	// No anchor (garbled head): anchorTime falls back to the 32-bit stamp.
	return anchorTime(b), nil
}

// IndexEntry locates one block of one CPU's stream in time.
type IndexEntry struct {
	Block int
	Seq   uint64
	Start uint64 // full timestamp of the block's first event
	// Flagged marks an entry whose anchor was lost to garbling or whose
	// raw start would have broken the per-CPU monotonic order BuildIndex
	// guarantees. Its Start is a clamped lower bound, not an exact time;
	// seeks treat flagged entries conservatively.
	Flagged bool
}

// Index is a per-CPU time index over the file's blocks, built from block
// headers and anchors only.
type Index struct {
	PerCPU [][]IndexEntry
}

// BuildIndex scans block headers (not data) and returns the per-CPU time
// index used for seeking. The block header and the leading clock anchor
// are contiguous on disk, so each block costs a single 48-byte read into a
// reused scratch buffer.
//
// Per CPU the Start sequence is guaranteed non-decreasing: a block whose
// anchor was garbled falls back to the 32-bit header stamp (an all-zero
// block yields 0), which would leave sort.Search in SeekTime and
// EventsBetween running over unsorted data and silently returning wrong
// block ranges. Such entries — and any raw start that dips below its
// predecessor — are clamped to the previous block's Start and Flagged, so
// binary searches stay correct and seeks treat them conservatively.
func (rd *Reader) BuildIndex() (*Index, error) {
	ix := &Index{PerCPU: make([][]IndexEntry, rd.meta.CPUs)}
	scratch := make([]byte, blockHdrWords*8+16) // header + anchor header + full timestamp
	for k := 0; k < rd.nBlk; k++ {
		if _, err := rd.r.ReadAt(scratch, rd.blockOff(k)); err != nil {
			return nil, blockErr(k, rd.blockOff(k), err)
		}
		h, err := decodeBlockHeader(scratch)
		if err != nil {
			return nil, blockErr(k, rd.blockOff(k), err)
		}
		if h.CPU < 0 || h.CPU >= rd.meta.CPUs {
			return nil, fmt.Errorf("stream: block %d has CPU %d out of range", k, h.CPU)
		}
		start, anchored := anchorTimeOK(scratch[blockHdrWords*8:])
		e := IndexEntry{Block: k, Seq: h.Seq, Start: start, Flagged: !anchored}
		if prev := ix.PerCPU[h.CPU]; len(prev) > 0 && start < prev[len(prev)-1].Start {
			e.Start = prev[len(prev)-1].Start
			e.Flagged = true
		}
		ix.PerCPU[h.CPU] = append(ix.PerCPU[h.CPU], e)
	}
	return ix, nil
}

// anchorTime extracts a block's start time from its first 16 payload
// bytes: the full timestamp of the leading clock anchor, or the 32-bit
// header stamp when the anchor was lost to garbling.
func anchorTime(b []byte) uint64 {
	t, _ := anchorTimeOK(b)
	return t
}

// anchorTimeOK is anchorTime plus whether a valid anchor was present; the
// 32-bit fallback is only an epoch-relative guess, which BuildIndex must
// know to keep its per-CPU order guarantee.
func anchorTimeOK(b []byte) (uint64, bool) {
	h := event.Header(getWord(b, 0))
	if h.Major() == event.MajorControl && h.Minor() == event.CtrlClockAnchor && h.Len() >= 2 {
		return getWord(b, 1), true
	}
	return uint64(h.Timestamp()), false
}

// SeekTime returns, per CPU, the index of the first block that could
// contain events at or after time t (i.e. the last block starting at or
// before t). This is the "jump to the middle 5 seconds of a gigabyte
// trace" operation: one binary search per CPU over the header index.
func (ix *Index) SeekTime(t uint64) []int {
	out := make([]int, len(ix.PerCPU))
	for cpu, entries := range ix.PerCPU {
		out[cpu] = -1
		if len(entries) == 0 {
			continue
		}
		// First entry with Start > t, then step back.
		i := sort.Search(len(entries), func(i int) bool { return entries[i].Start > t })
		out[cpu] = entries[seekBack(entries, i)].Block
	}
	return out
}

// seekBack turns i — the first entry with Start > t — into the index of
// the earliest block that could still contain events at or after t.
// Normally a single step back; it keeps stepping over entries whose Start
// is only a clamped lower bound (Flagged) or duplicates the predecessor's
// Start, because such a block's true extent is unknown and the block
// before it may still reach past t.
func seekBack(entries []IndexEntry, i int) int {
	if i > 0 {
		i--
	}
	for i > 0 && (entries[i].Flagged || entries[i].Start == entries[i-1].Start) {
		i--
	}
	return i
}

// ReadAll decodes the whole file and returns events merged across CPUs in
// timestamp order (stable within equal stamps: by CPU then stream order).
// Tools use this for whole-trace analysis; interactive tools use the index
// plus EventsBetween for large files. ReadAll is the one-goroutine form of
// ReadAllParallel; both produce bit-identical output.
func (rd *Reader) ReadAll() ([]event.Event, core.DecodeStats, error) {
	return rd.ReadAllParallel(1)
}

// EventsBetween returns events with from <= Time < to, merged across CPUs,
// using the index to touch only the necessary blocks.
func (rd *Reader) EventsBetween(ix *Index, from, to uint64) ([]event.Event, error) {
	var out []event.Event
	for _, entries := range ix.PerCPU {
		if len(entries) == 0 {
			continue
		}
		i := sort.Search(len(entries), func(i int) bool { return entries[i].Start > from })
		i = seekBack(entries, i)
		for ; i < len(entries); i++ {
			if entries[i].Start >= to {
				break
			}
			evs, _, err := rd.Events(entries[i].Block)
			if err != nil {
				return nil, err
			}
			for _, e := range evs {
				if e.Time >= from && e.Time < to {
					out = append(out, e)
				}
			}
		}
	}
	sortEvents(out)
	return out, nil
}

// sortEvents sorts by time, breaking ties by CPU (stable keeps per-CPU
// stream order).
func sortEvents(evs []event.Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].CPU < evs[j].CPU
	})
}

// Anomalies returns the headers of all blocks flagged anomalous — the
// post-processing side of garble detection.
func (rd *Reader) Anomalies() ([]BlockHeader, error) {
	var out []BlockHeader
	scratch := make([]byte, blockHdrWords*8)
	for k := 0; k < rd.nBlk; k++ {
		h, err := rd.headerInto(k, scratch)
		if err != nil {
			return nil, err
		}
		if h.Anomalous() {
			out = append(out, h)
		}
	}
	return out, nil
}
