package stream

import (
	"bufio"
	"errors"
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

// Next reads the next block into dst and returns its words, dst[:NWords].
// The words are the caller's, as dst was: a consumer that is done with a
// block before it asks for the next hands the same buffer back and reads
// a stream without allocating. A dst too small for the block — nil always
// is — is left alone, and the words are a fresh slice of exactly the
// block's size. When Next returns an error it has not written to dst.
//
// It returns io.EOF after the final block; a block cut off mid-transfer
// returns io.ErrUnexpectedEOF wrapped with the block index and stream
// offset, so collectors can report where a transfer was torn.
//
// A block whose header fails validation comes back as a *BlockDamageError.
// That error is not terminal: the full stride was consumed, so the stream
// is still aligned and the following call proceeds to the next block.
// This is what lets a live collector count a garbled block and keep the
// producer connected — the fixed stride is the resynchronization point,
// the same property the offline salvager leans on.
func (s *BlockStream) Next(dst []uint64) (BlockHeader, []uint64, error) {
	off := int64(fileHdrWords*8) + int64(s.n)*int64(len(s.buf))
	if n, err := io.ReadFull(s.r, s.buf); err != nil {
		if n == 0 && err == io.EOF {
			return BlockHeader{}, nil, io.EOF
		}
		return BlockHeader{}, nil, blockErr(s.n, off, shortRead(err))
	}
	k := s.n
	s.n++
	h, err := s.meta.blockHeader(s.buf)
	if err != nil {
		return BlockHeader{}, nil, &BlockDamageError{Block: k, Offset: off, Cause: err}
	}
	return h, wordsInto(dst, s.buf[blockHdrWords*8:(blockHdrWords+h.NWords)*8]), nil
}

// BlockSink is where a block goes next: a trace file (*Writer), a network
// link, a channel. It is the one hand-off shape — the wire format is the
// file format, so anything that accepts a header and its words can stand
// behind any block source.
type BlockSink interface {
	WriteBlock(h BlockHeader, words []uint64) error
}

// SinkFunc adapts a function to a BlockSink.
type SinkFunc func(h BlockHeader, words []uint64) error

func (f SinkFunc) WriteBlock(h BlockHeader, words []uint64) error { return f(h, words) }

// CopyStats counts what one CopyTo moved.
type CopyStats struct {
	Blocks    int // blocks dst accepted
	Anomalies int // of those, blocks carrying the anomaly flag
	Damaged   int // blocks whose header failed validation: counted, not copied
}

// CopyTo is the one pump from a block stream into a sink: it hands every
// block to dst until the stream ends. A damaged block is counted and
// skipped — Next keeps the stream aligned across it — so one garbled
// header costs one block, not the connection. The counts are valid
// whatever the error: a stream torn after N blocks reports N. A clean end
// of stream is a nil error. Every block is read into words of its own,
// because a sink may keep what it is handed.
func (s *BlockStream) CopyTo(dst BlockSink) (CopyStats, error) {
	var st CopyStats
	for {
		h, words, err := s.Next(nil)
		if err == io.EOF {
			return st, nil
		}
		var dmg *BlockDamageError
		if errors.As(err, &dmg) {
			st.Damaged++
			continue
		}
		if err != nil {
			return st, err
		}
		if err := dst.WriteBlock(h, words); err != nil {
			return st, err
		}
		st.Blocks++
		if h.Anomalous() {
			st.Anomalies++
		}
	}
}
