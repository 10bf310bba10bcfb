package stream

import (
	"fmt"
	"io"
	"sync"

	"k42trace/internal/clock"
	"k42trace/internal/core"
)

// Source is anything that seals trace buffers and hands them to a drain:
// the in-process core.Tracer, or the shm daemon's Agent whose buffers live
// in a cross-process mapping. Capture and the relay senders accept a
// Source, so the write-out and network paths are identical for both — the
// paper's single trace daemon serving "applications, libraries, servers,
// and the kernel".
type Source interface {
	// Sealed delivers completed buffers; the channel closes after the
	// source stops and its final flush.
	Sealed() <-chan core.Sealed
	// Release recycles a sealed buffer's slot after the consumer is done
	// with its words.
	Release(core.Sealed)
	// BufWords, NumCPUs, and Clock describe the stream's geometry for the
	// file header.
	BufWords() int
	NumCPUs() int
	Clock() clock.Source
}

// Writer serializes sealed buffers into the trace file format. It is safe
// for use from one goroutine (the usual pattern: one drain goroutine per
// tracer, consuming the Sealed channel).
type Writer struct {
	w      io.Writer
	meta   Meta
	blocks int
	buf    []byte // reusable block encoding buffer
}

// NewWriter writes the file header and returns a Writer.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	if err := meta.check(); err != nil {
		return nil, err
	}
	if _, err := w.Write(encodeFileHeader(meta)); err != nil {
		return nil, fmt.Errorf("stream: writing file header: %w", err)
	}
	return &Writer{
		w:    w,
		meta: meta,
		buf:  make([]byte, blockStride(meta.BufWords)),
	}, nil
}

// MetaOf is the stream header a source's blocks are written under.
func MetaOf(src Source) Meta {
	return Meta{BufWords: src.BufWords(), CPUs: src.NumCPUs(), ClockHz: src.Clock().Hz()}
}

// HeaderOf is the block header a sealed buffer is written under. The
// anomaly flag is set when the buffer's commit count disagrees with its
// data size ("report an anomaly if they do not match").
func HeaderOf(s core.Sealed) BlockHeader {
	h := BlockHeader{
		CPU:       s.CPU,
		NWords:    len(s.Words),
		Seq:       s.Seq,
		Committed: s.Committed,
	}
	if s.Partial {
		h.Flags |= FlagPartial
	}
	if s.Anomalous() {
		h.Flags |= FlagAnomalous
	}
	return h
}

// WriteBlock writes one block, zero-padding a partial one to the stride.
// It refuses a block the readers would: more words than the
// file's stride holds, or a CPU the file header does not declare — the
// block header's 16-bit CPU field would otherwise alias it onto another.
func (wr *Writer) WriteBlock(h BlockHeader, words []uint64) error {
	if err := wr.admit(h, len(words)); err != nil {
		return err
	}
	wordsToBytes(wr.buf[blockHdrWords*8:], words)
	return wr.writeStride(h, len(words))
}

// CopyBlock writes, under the header h, the block a scan found at offset
// off of r: header and h.NWords payload words are read straight into the
// writer's stride buffer, so the words are never anyone else's. h is the
// scan's header for the block or an edit of it — Seq renumbered, a clipped
// tail's NWords cut to what survived and re-marked partial — and replaces
// the source's; source bytes past h.NWords are not read and come out zero.
//
// r must still hold what the scan saw. CopyBlock re-checks the header —
// block magic, CPU, commit count, and at least h.NWords words — and refuses
// a block that changed; it does not re-check the payload words, which only a
// second decode could.
func (wr *Writer) CopyBlock(r io.ReaderAt, off int64, h BlockHeader) error {
	if err := wr.admit(h, h.NWords); err != nil {
		return err
	}
	b := wr.buf[:(blockHdrWords+h.NWords)*8]
	if n, err := r.ReadAt(b, off); n < len(b) {
		return fmt.Errorf("stream: copying block at offset %d: %w", off, shortRead(err))
	}
	src, err := decodeBlockHeader(b)
	if err != nil || src.CPU != h.CPU || src.Committed != h.Committed || src.NWords < h.NWords {
		return fmt.Errorf("stream: block at offset %d changed since it was scanned", off)
	}
	return wr.writeStride(h, h.NWords)
}

// admit refuses a block of n words under h that the file's geometry cannot
// hold.
func (wr *Writer) admit(h BlockHeader, n int) error {
	if n < 0 || n > wr.meta.BufWords {
		return fmt.Errorf("stream: block of %d words exceeds bufWords %d", n, wr.meta.BufWords)
	}
	if h.CPU < 0 || h.CPU >= wr.meta.CPUs {
		return fmt.Errorf("stream: block CPU %d outside [0,%d)", h.CPU, wr.meta.CPUs)
	}
	return nil
}

// writeStride is the one place a stride is laid out: the stride buffer
// already holds the block's n payload words; h goes in front of them, zeros
// behind, and the stride goes out.
func (wr *Writer) writeStride(h BlockHeader, n int) error {
	copy(wr.buf, encodeBlockHeader(h))
	clear(wr.buf[(blockHdrWords+n)*8:])
	m, err := wr.w.Write(wr.buf)
	if err != nil {
		return fmt.Errorf("stream: writing block %d: %w", wr.blocks, err)
	}
	if m != len(wr.buf) {
		return errShortWrite
	}
	wr.blocks++
	return nil
}

// CaptureStats summarizes a drain. Anomalies counts the blocks written
// with the anomaly flag — the write-out side of the paper's
// per-buffer-count garble detection.
type CaptureStats struct {
	Blocks    int
	Anomalies int
}

// Drain hands a source's sealed buffers to dst, one block each, until the
// Sealed channel closes (i.e. until the source stops) or dst refuses a
// block. It releases each buffer back to the source after the write,
// delivered or not, which is what allows the logging side to run lossless
// under the Block policy. This is the relayfs-style "code responsible for
// writing the data (to a network stream, file, etc.)": Capture drains
// into a file, the relay senders into a network link.
func Drain(src Source, dst BlockSink) (CaptureStats, error) {
	var st CaptureStats
	for s := range src.Sealed() {
		h := HeaderOf(s)
		err := dst.WriteBlock(h, s.Words)
		src.Release(s)
		if err != nil {
			return st, err
		}
		st.Blocks++
		if h.Anomalous() {
			st.Anomalies++
		}
	}
	return st, nil
}

// Capture drains a source into a trace file until the source stops.
func Capture(tr Source, w io.Writer) (CaptureStats, error) {
	wr, err := NewWriter(w, MetaOf(tr))
	if err != nil {
		return CaptureStats{}, err
	}
	return Drain(tr, wr)
}

// WriteCrashDump writes a tracer's flight recorder to w as a trace file:
// each CPU's resident buffers, oldest first, one block each under the
// header HeaderOf gives it — the generation is the block's Seq, the current
// buffer is partial, and a commit-count shortfall is flagged anomalous. It
// quiesces tracing while it writes and then restores the mask, so it can be
// called on a live system.
func WriteCrashDump(tr *core.Tracer, w io.Writer) error {
	old := tr.Quiesce()
	defer tr.SetMask(old)
	wr, err := NewWriter(w, MetaOf(tr))
	for cpu := 0; err == nil && cpu < tr.NumCPUs(); cpu++ {
		tr.Resident(cpu, func(s core.Sealed) {
			if err == nil {
				err = wr.WriteBlock(HeaderOf(s), s.Words)
			}
		})
	}
	return err
}

// CaptureAsync runs Capture in a goroutine and returns a wait function
// that reports the result after the source has been stopped.
func CaptureAsync(tr Source, w io.Writer) (wait func() (CaptureStats, error)) {
	var (
		st   CaptureStats
		err  error
		once sync.Once
		done = make(chan struct{})
	)
	go func() {
		st, err = Capture(tr, w)
		close(done)
	}()
	return func() (CaptureStats, error) {
		once.Do(func() { <-done })
		return st, err
	}
}
