package stream

import (
	"bufio"
	"fmt"
	"io"
)

// BlockStream reads the trace format sequentially from a non-seekable
// source — a pipe or network connection. The wire protocol is identical to
// the file format, so a collected stream can be written straight to disk
// and later opened with Reader for random access.
type BlockStream struct {
	r    *bufio.Reader
	meta Meta
	buf  []byte
	n    int
}

// NewBlockStream reads and validates the stream header.
func NewBlockStream(r io.Reader) (*BlockStream, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr := make([]byte, fileHdrWords*8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("stream: reading stream header: %w", err)
	}
	meta, err := decodeFileHeader(hdr)
	if err != nil {
		return nil, err
	}
	return &BlockStream{
		r:    br,
		meta: meta,
		buf:  make([]byte, blockStride(meta.BufWords)),
	}, nil
}

// Meta returns the stream metadata.
func (s *BlockStream) Meta() Meta { return s.meta }

// Blocks returns the number of blocks read so far.
func (s *BlockStream) Blocks() int { return s.n }

// Next reads the next block. The returned words are allocated per call and
// belong to the caller (NextInto is the reusing form). It returns io.EOF
// after the final block; a block cut off mid-transfer returns
// io.ErrUnexpectedEOF wrapped with the block index and stream offset, so
// collectors can report where a transfer was torn.
//
// A block whose header fails validation comes back as a *BlockDamageError.
// That error is not terminal: the full stride was consumed, so the stream
// is still aligned and the following call proceeds to the next block.
// This is what lets a live collector count a garbled block and keep the
// producer connected — the fixed stride is the resynchronization point,
// the same property the offline salvager leans on.
func (s *BlockStream) Next() (BlockHeader, []uint64, error) {
	h, err := s.next()
	if err != nil {
		return BlockHeader{}, nil, err
	}
	words := bytesToWords(s.buf[blockHdrWords*8 : (blockHdrWords+h.NWords)*8])
	return h, words, nil
}

// next consumes one full stride and validates its header. On success the
// block's bytes sit in s.buf. Errors other than a short read leave the
// stream aligned on the next stride.
func (s *BlockStream) next() (BlockHeader, error) {
	off := int64(fileHdrWords*8) + int64(s.n)*int64(len(s.buf))
	if _, err := io.ReadFull(s.r, s.buf); err != nil {
		if err == io.EOF {
			return BlockHeader{}, io.EOF
		}
		return BlockHeader{}, fmt.Errorf("stream: block %d (offset %d): %w", s.n, off, err)
	}
	k := s.n
	s.n++
	h, err := decodeBlockHeader(s.buf)
	if err == nil && h.NWords > s.meta.BufWords {
		err = fmt.Errorf("claims %d words > bufWords %d", h.NWords, s.meta.BufWords)
	}
	if err != nil {
		return BlockHeader{}, &BlockDamageError{Block: k, Offset: off, Cause: err}
	}
	return h, nil
}

// NextInto is Next reusing bb's storage: one block read with no per-call
// allocation once bb has warmed up. The returned words alias bb and are
// valid until the next call on the same bb.
func (s *BlockStream) NextInto(bb *BlockBuf) (BlockHeader, []uint64, error) {
	h, err := s.next()
	if err != nil {
		return BlockHeader{}, nil, err
	}
	if cap(bb.words) < s.meta.BufWords {
		bb.words = make([]uint64, s.meta.BufWords)
	}
	w := bb.words[:h.NWords]
	data := s.buf[blockHdrWords*8:]
	for i := range w {
		w[i] = getWord(data, i)
	}
	return h, w, nil
}

// BlockDamageError reports a block that failed header validation. The
// stream remains aligned: the stride was fully consumed, so the caller
// may keep reading subsequent blocks.
type BlockDamageError struct {
	Block  int   // block index in the stream
	Offset int64 // byte offset of the block
	Cause  error
}

func (e *BlockDamageError) Error() string {
	return fmt.Sprintf("stream: block %d (offset %d) damaged: %v", e.Block, e.Offset, e.Cause)
}

func (e *BlockDamageError) Unwrap() error { return e.Cause }
