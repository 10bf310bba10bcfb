// Package stream defines the on-disk trace file format and its reader and
// writer. The format preserves the paper's central file property: the
// trace is a sequence of fixed-stride buffer blocks, each beginning at an
// alignment boundary with a decodable event (buffers never split events),
// so tools can seek to any block in a multi-gigabyte trace and start
// interpreting events there — "random access to the data stream".
//
// Layout (all little-endian 64-bit words):
//
//	file header (8 words):
//	    magic "K42TRACE" | version | bufWords | cpus | clockHz | reserved*3
//	block 0, block 1, ... (fixed stride = blockHdrWords + bufWords words):
//	    block magic | cpu/flags/nWords | seq | committed | data[bufWords]
//
// Partial buffers (from a flush) are zero-padded to the stride so block k
// always lives at a computable offset.
package stream

import (
	"encoding/binary"
	"fmt"
	"io"
)

// FileMagic begins every trace file ("K42TRACE" as a little-endian word).
const FileMagic uint64 = 0x454341525432344B

// BlockMagic begins every block, letting tools resynchronize on a
// corrupted file.
const BlockMagic uint64 = 0x314352545F32344B // "K42_TRC1"

// Version is the current format version.
const Version = 1

const (
	fileHdrWords  = 8
	blockHdrWords = 4
)

// Sanity bounds on header-declared geometry. A trace header is the one
// thing a reader must trust before it has read anything else, so cap what
// it may claim: without these, a corrupted (or fuzzed) header can demand
// multi-gigabyte allocations before the first block is even read.
const (
	// MaxBufWords caps the per-buffer payload size a header may declare
	// (2M words = 16 MiB per block, far above any real configuration).
	MaxBufWords = 1 << 21
	// MaxMetaCPUs caps the CPU count a header may declare: a block header
	// carries its CPU id in 16 bits, so a larger file could not name its
	// own CPUs.
	MaxMetaCPUs = 1 << 16
)

// Block flags.
const (
	// FlagPartial marks a buffer flushed before it filled.
	FlagPartial uint16 = 1 << iota
	// FlagAnomalous marks a buffer whose commit count disagreed with its
	// size when written out — the per-buffer-count garble report of §3.1.
	FlagAnomalous
)

// Meta describes a trace file.
type Meta struct {
	// BufWords is the buffer (block payload) size in 64-bit words; it is
	// the random-access stride of the file.
	BufWords int
	// CPUs is the number of processor slots that produced the trace.
	CPUs int
	// ClockHz is the tick rate of the trace timestamps.
	ClockHz uint64
}

// BlockHeader describes one buffer block.
type BlockHeader struct {
	CPU   int
	Flags uint16
	// NWords is the number of valid data words (== BufWords except for
	// partial blocks).
	NWords int
	// Seq is the buffer's generation number on its CPU.
	Seq uint64
	// Committed is the per-buffer commit count recorded at write-out.
	Committed uint64
}

// partial reports whether the block was flushed before it filled.
func (h BlockHeader) partial() bool { return h.Flags&FlagPartial != 0 }

// Anomalous reports whether the writer flagged a commit-count mismatch.
func (h BlockHeader) Anomalous() bool { return h.Flags&FlagAnomalous != 0 }

// putWord appends a word to b in little-endian order.
func putWord(b []byte, i int, w uint64) { binary.LittleEndian.PutUint64(b[i*8:], w) }

func getWord(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }

func encodeFileHeader(m Meta) []byte {
	b := make([]byte, fileHdrWords*8)
	putWord(b, 0, FileMagic)
	putWord(b, 1, Version)
	putWord(b, 2, uint64(m.BufWords))
	putWord(b, 3, uint64(m.CPUs))
	putWord(b, 4, m.ClockHz)
	return b
}

func decodeFileHeader(b []byte) (Meta, error) {
	if len(b) < fileHdrWords*8 {
		return Meta{}, fmt.Errorf("stream: short file header (%d bytes)", len(b))
	}
	if getWord(b, 0) != FileMagic {
		return Meta{}, fmt.Errorf("stream: bad file magic %#x", getWord(b, 0))
	}
	if v := getWord(b, 1); v != Version {
		return Meta{}, fmt.Errorf("stream: unsupported version %d", v)
	}
	m := Meta{
		BufWords: int(getWord(b, 2)),
		CPUs:     int(getWord(b, 3)),
		ClockHz:  getWord(b, 4),
	}
	if err := m.check(); err != nil {
		return Meta{}, err
	}
	return m, nil
}

// check validates the geometry bounds shared by the writer (refusing to
// produce such a file) and the readers (refusing to believe one).
func (m Meta) check() error {
	if m.BufWords < 16 || m.BufWords > MaxBufWords || m.CPUs < 1 || m.CPUs > MaxMetaCPUs {
		return fmt.Errorf("stream: implausible header %+v", m)
	}
	return nil
}

// ParseFileHeader decodes a trace file header from the leading bytes of a
// file or stream. It is the exported form of the reader's own header
// decode, for tools (fault injectors, salvagers) that work on raw trace
// bytes without opening a full Reader.
func ParseFileHeader(b []byte) (Meta, error) { return decodeFileHeader(b) }

// Geometry is the byte-level layout implied by a file's metadata; it lets
// byte-oriented tools locate blocks without re-deriving format constants.
type Geometry struct {
	FileHeaderBytes  int
	BlockHeaderBytes int
	// BlockBytes is the fixed stride of one block: header plus payload,
	// with partial payloads zero-padded.
	BlockBytes int
}

// Geometry returns the byte-level layout of a trace with this metadata.
func (m Meta) Geometry() Geometry {
	return Geometry{
		FileHeaderBytes:  fileHdrWords * 8,
		BlockHeaderBytes: blockHdrWords * 8,
		BlockBytes:       int(blockStride(m.BufWords)),
	}
}

func encodeBlockHeader(h BlockHeader) []byte {
	b := make([]byte, blockHdrWords*8)
	putWord(b, 0, BlockMagic)
	putWord(b, 1, uint64(uint16(h.CPU))|uint64(h.Flags)<<16|uint64(uint32(h.NWords))<<32)
	putWord(b, 2, h.Seq)
	putWord(b, 3, h.Committed)
	return b
}

func decodeBlockHeader(b []byte) (BlockHeader, error) {
	if len(b) < blockHdrWords*8 {
		return BlockHeader{}, fmt.Errorf("stream: short block header")
	}
	if getWord(b, 0) != BlockMagic {
		return BlockHeader{}, fmt.Errorf("stream: bad block magic %#x", getWord(b, 0))
	}
	w1 := getWord(b, 1)
	return BlockHeader{
		CPU:       int(uint16(w1)),
		Flags:     uint16(w1 >> 16),
		NWords:    int(uint32(w1 >> 32)),
		Seq:       getWord(b, 2),
		Committed: getWord(b, 3),
	}, nil
}

// blockHeader is the one place a block is declared sound: b, which begins
// at a stride boundary, carries the block magic and a header that fits the
// trace's geometry. Every reader — random-access, sequential, index build
// and salvage — admits a block through here, so a damaged block is the
// same block, for the same cause, to all of them.
func (m Meta) blockHeader(b []byte) (BlockHeader, error) {
	h, err := decodeBlockHeader(b)
	if err != nil {
		return BlockHeader{}, err
	}
	if h.NWords > m.BufWords {
		return BlockHeader{}, fmt.Errorf("claims %d words > bufWords %d", h.NWords, m.BufWords)
	}
	if h.CPU >= m.CPUs {
		return BlockHeader{}, fmt.Errorf("claims CPU %d >= cpus %d", h.CPU, m.CPUs)
	}
	return h, nil
}

// errTruncated is the cause every reader gives for a block the input ends
// inside of.
var errTruncated = fmt.Errorf("truncated block: %w", io.ErrUnexpectedEOF)

// shortRead names the cause of a block read that came back short: the
// input ending mid-block is a truncation, anything else is the I/O error.
func shortRead(err error) error {
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		return errTruncated
	}
	return err
}

// blockErr wraps a per-block failure with the block index and byte offset,
// so a truncated or corrupted input reports where it went wrong instead of
// a bare io.ErrUnexpectedEOF.
func blockErr(k int, off int64, err error) error {
	return fmt.Errorf("stream: block %d (offset %d): %w", k, off, err)
}

// BlockDamageError reports a block that failed header validation. The
// input remains aligned: the stride was fully consumed, so a sequential
// caller may keep reading subsequent blocks, and a salvager quarantines
// this one alone.
type BlockDamageError struct {
	Block  int   // block index in the file or stream
	Offset int64 // byte offset of the block
	Cause  error
}

func (e *BlockDamageError) Error() string {
	return fmt.Sprintf("stream: block %d (offset %d) damaged: %v", e.Block, e.Offset, e.Cause)
}

func (e *BlockDamageError) Unwrap() error { return e.Cause }

// wordsToBytes serializes words into a byte slice (little-endian).
func wordsToBytes(dst []byte, words []uint64) {
	for i, w := range words {
		binary.LittleEndian.PutUint64(dst[i*8:], w)
	}
}

// wordsInto parses b's little-endian words into dst and returns them. A
// dst without room for them is left alone, and the words are a fresh slice
// of exactly their size.
func wordsInto(dst []uint64, b []byte) []uint64 {
	n := len(b) / 8
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = getWord(b, i)
	}
	return dst
}

// bytesToWords parses little-endian words into a slice of their own.
func bytesToWords(b []byte) []uint64 { return wordsInto(nil, b) }

// blockStride returns a block's on-disk size in bytes.
func blockStride(bufWords int) int64 { return int64(blockHdrWords+bufWords) * 8 }

var errShortWrite = io.ErrShortWrite
