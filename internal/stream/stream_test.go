package stream

import (
	"bytes"
	"testing"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
)

// runCapture logs n events of mixed sizes on each of cpus slots through a
// Stream tracer, captures them into an in-memory trace file, and returns
// the file bytes.
func runCapture(t *testing.T, cpus, bufWords, n int) []byte {
	t.Helper()
	tr := core.MustNew(core.Config{
		CPUs: cpus, BufWords: bufWords, NumBufs: 4,
		Mode: core.Stream, Clock: clock.NewManual(1),
	})
	tr.EnableAll()
	var buf bytes.Buffer
	wait := CaptureAsync(tr, &buf)
	for i := 0; i < n; i++ {
		c := tr.CPU(i % cpus)
		switch i % 3 {
		case 0:
			c.Log1(event.MajorTest, 1, uint64(i))
		case 1:
			c.Log2(event.MajorTest, 2, uint64(i), uint64(i)*2)
		default:
			c.Log4(event.MajorTest, 4, uint64(i), 1, 2, 3)
		}
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newReader(t *testing.T, data []byte) *Reader {
	t.Helper()
	rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

func TestFileHeaderRoundTrip(t *testing.T) {
	m := Meta{BufWords: 1024, CPUs: 8, ClockHz: 1e9}
	got, err := decodeFileHeader(encodeFileHeader(m))
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Errorf("got %+v want %+v", got, m)
	}
}

func TestFileHeaderRejects(t *testing.T) {
	m := Meta{BufWords: 1024, CPUs: 8, ClockHz: 1e9}
	b := encodeFileHeader(m)
	b[0] ^= 0xff
	if _, err := decodeFileHeader(b); err == nil {
		t.Error("bad magic accepted")
	}
	b = encodeFileHeader(m)
	putWord(b, 1, 99)
	if _, err := decodeFileHeader(b); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := decodeFileHeader(b[:10]); err == nil {
		t.Error("short header accepted")
	}
	putWord(b, 1, Version)
	putWord(b, 2, 1) // implausible bufWords
	if _, err := decodeFileHeader(b); err == nil {
		t.Error("implausible bufWords accepted")
	}
}

func TestBlockHeaderRoundTrip(t *testing.T) {
	h := BlockHeader{CPU: 3, Flags: FlagPartial | FlagAnomalous, NWords: 777,
		Seq: 123456, Committed: 770}
	got, err := decodeBlockHeader(encodeBlockHeader(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("got %+v want %+v", got, h)
	}
	if !got.partial() || !got.Anomalous() {
		t.Error("flag accessors wrong")
	}
	b := encodeBlockHeader(h)
	b[0] ^= 0xff
	if _, err := decodeBlockHeader(b); err == nil {
		t.Error("bad block magic accepted")
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Meta{BufWords: 4, CPUs: 1}); err == nil {
		t.Error("tiny BufWords accepted")
	}
	if _, err := NewWriter(&buf, Meta{BufWords: 64, CPUs: 0}); err == nil {
		t.Error("zero CPUs accepted")
	}
	wr, err := NewWriter(&buf, Meta{BufWords: 64, CPUs: 1, ClockHz: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	// Oversized buffer rejected.
	if err := wr.WriteBlock(BlockHeader{NWords: 65}, make([]uint64, 65)); err == nil {
		t.Error("oversized buffer accepted")
	}
	// A header may not declare more CPUs than a block header's 16-bit CPU
	// field can name...
	if _, err := NewWriter(&buf, Meta{BufWords: 64, CPUs: MaxMetaCPUs + 1}); err == nil {
		t.Error("header with more CPUs than a block can name accepted")
	}
	// ...and a block may not name a CPU its file does not declare: CPU
	// 65537 would read back as CPU 1.
	before := wr.blocks
	for _, cpu := range []int{-1, 1, 65537} {
		if err := wr.WriteBlock(BlockHeader{CPU: cpu}, nil); err == nil {
			t.Errorf("WriteBlock accepted CPU %d in a 1-CPU file", cpu)
		}
		if err := wr.WriteBlock(BlockHeader{CPU: cpu}, nil); err == nil {
			t.Errorf("WriteBlock accepted CPU %d in a 1-CPU file", cpu)
		}
	}
	if wr.blocks != before {
		t.Errorf("%d refused blocks were written", wr.blocks-before)
	}
}

// TestCopyBlock: CopyBlock lays out the stride WriteBlock would have, from
// the source's bytes instead of a word slice — whatever lies past the
// header's word count in the source comes out zero — and refuses a source
// that no longer holds the block its header was scanned from.
func TestCopyBlock(t *testing.T) {
	meta := Meta{BufWords: 64, CPUs: 2, ClockHz: 1e9}
	h := BlockHeader{CPU: 1, Flags: FlagPartial, NWords: 10, Seq: 7, Committed: 10}
	words := make([]uint64, h.NWords)
	for i := range words {
		words[i] = 0x0101010101010101 * uint64(i+1)
	}
	var srcBuf, want bytes.Buffer
	for _, buf := range []*bytes.Buffer{&srcBuf, &want} {
		wr, err := NewWriter(buf, meta)
		if err != nil {
			t.Fatal(err)
		}
		placed := h
		if buf == &want {
			placed.Seq = 0 // the copy renumbers
		}
		if err := wr.WriteBlock(placed, words); err != nil {
			t.Fatal(err)
		}
	}
	src := srcBuf.Bytes()
	const off = fileHdrWords * 8
	for i := off + (blockHdrWords+h.NWords)*8; i < len(src); i++ {
		src[i] = 0xee // what a recycled buffer leaves behind its valid words
	}

	var out bytes.Buffer
	wr, err := NewWriter(&out, meta)
	if err != nil {
		t.Fatal(err)
	}
	placed := h
	placed.Seq = 0
	if err := wr.CopyBlock(bytes.NewReader(src), off, placed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Error("CopyBlock and WriteBlock lay the same block out differently")
	}

	for name, damage := range map[string]func(b []byte) []byte{
		"magic":        func(b []byte) []byte { b[off] ^= 1; return b },
		"cpu":          func(b []byte) []byte { b[off+8] ^= 1; return b },
		"commit count": func(b []byte) []byte { b[off+24] ^= 1; return b },
		"fewer words":  func(b []byte) []byte { putWord(b[off:], 1, getWord(b[off:], 1)-1<<32); return b },
		"cut short":    func(b []byte) []byte { return b[:off+(blockHdrWords+h.NWords)*8-1] },
	} {
		changed := damage(append([]byte(nil), src...))
		size, blocks := out.Len(), wr.blocks
		if err := wr.CopyBlock(bytes.NewReader(changed), off, placed); err == nil {
			t.Errorf("%s: CopyBlock copied a block that changed since its header was read", name)
		}
		if out.Len() != size || wr.blocks != blocks {
			t.Errorf("%s: the refused block was written", name)
		}
	}
	if err := wr.CopyBlock(bytes.NewReader(src), off, BlockHeader{CPU: 2, NWords: 10, Committed: 10}); err == nil {
		t.Error("CopyBlock accepted CPU 2 in a 2-CPU file")
	}
	if err := wr.CopyBlock(bytes.NewReader(src), off, BlockHeader{CPU: 1, NWords: 65, Committed: 10}); err == nil {
		t.Error("CopyBlock accepted 65 words in a 64-word file")
	}
}

// TestCopyBlockClippedTail: the block a truncation cut is copied under the
// header the scan gave it — exactly the words that survived, re-marked
// partial — and reads back as that.
func TestCopyBlockClippedTail(t *testing.T) {
	data := runCapture(t, 1, 64, 400)
	rd := newReader(t, data)
	last := rd.NumBlocks() - 2 // the capture's own last block is a flush's partial
	srcHdr, srcWords, err := rd.Block(last)
	if err != nil {
		t.Fatal(err)
	}
	const survive = 20
	if srcHdr.partial() || srcHdr.NWords <= survive {
		t.Fatalf("want a full last block, got %+v", srcHdr)
	}
	cut := data[:int(rd.blockOff(last))+(blockHdrWords+survive)*8]
	src := bytes.NewReader(cut)
	blocks, rep, err := SalvageBlocks(src, int64(len(cut)), 1, nil)
	if err != nil || !rep.TailSalvaged || len(blocks) != last+1 {
		t.Fatalf("salvage of the cut capture: %v\n%v", err, rep)
	}
	var out bytes.Buffer
	wr, err := NewWriter(&out, rep.Meta)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if err := wr.CopyBlock(src, blocks[i].Digest.Off, blocks[i].Hdr); err != nil {
			t.Fatal(err)
		}
	}
	h, words, err := newReader(t, out.Bytes()).Block(last)
	if err != nil {
		t.Fatal(err)
	}
	if !h.partial() || h.NWords != survive || !equalWords(words, srcWords[:survive]) {
		t.Errorf("clipped tail reads back as %+v with %d words, want partial with the %d that survived", h, len(words), survive)
	}
}

func TestCaptureAndReadAll(t *testing.T) {
	const n = 500
	data := runCapture(t, 2, 64, n)
	rd := newReader(t, data)
	if rd.Meta().CPUs != 2 || rd.Meta().BufWords != 64 || rd.Meta().ClockHz != 1e9 {
		t.Errorf("meta %+v", rd.Meta())
	}
	evs, st, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if st.Garbled() {
		t.Fatalf("garbled: %+v", st)
	}
	var payloads []uint64
	var prev uint64
	for _, e := range evs {
		if e.Time < prev {
			t.Fatal("merged events not time-sorted")
		}
		prev = e.Time
		if e.Major() == event.MajorTest {
			payloads = append(payloads, e.Data[0])
		}
	}
	if len(payloads) != n {
		t.Fatalf("recovered %d events, want %d", len(payloads), n)
	}
	// With a strictly increasing shared Manual clock, merged time order
	// equals logging order, so payloads come back 0..n-1.
	for i, p := range payloads {
		if p != uint64(i) {
			t.Fatalf("payload[%d] = %d", i, p)
		}
	}
}

func TestRandomAccessMatchesSequential(t *testing.T) {
	data := runCapture(t, 2, 64, 400)
	rd := newReader(t, data)
	if rd.NumBlocks() < 4 {
		t.Fatalf("want several blocks, got %d", rd.NumBlocks())
	}
	// Read blocks in reverse; contents must match the forward pass.
	type blk struct {
		h BlockHeader
		w []uint64
	}
	fwd := make([]blk, rd.NumBlocks())
	for k := 0; k < rd.NumBlocks(); k++ {
		h, w, err := rd.Block(k)
		if err != nil {
			t.Fatal(err)
		}
		fwd[k] = blk{h, w}
	}
	for k := rd.NumBlocks() - 1; k >= 0; k-- {
		h, w, err := rd.Block(k)
		if err != nil {
			t.Fatal(err)
		}
		if h != fwd[k].h || len(w) != len(fwd[k].w) {
			t.Fatalf("block %d differs on random access", k)
		}
		for i := range w {
			if w[i] != fwd[k].w[i] {
				t.Fatalf("block %d word %d differs", k, i)
			}
		}
	}
	// Every block decodes from its start: the alignment-boundary property.
	for k := 0; k < rd.NumBlocks(); k++ {
		evs, st, err := rd.Events(k)
		if err != nil {
			t.Fatal(err)
		}
		if st.Garbled() {
			t.Fatalf("block %d garbled", k)
		}
		if len(evs) == 0 || evs[0].Minor() != event.CtrlClockAnchor {
			t.Fatalf("block %d does not begin with an anchor", k)
		}
	}
	if _, _, err := rd.Block(rd.NumBlocks()); err == nil {
		t.Error("out-of-range block accepted")
	}
	if _, _, err := rd.Block(-1); err == nil {
		t.Error("negative block accepted")
	}
}

func TestEventsBetween(t *testing.T) {
	data := runCapture(t, 2, 64, 600)
	rd := newReader(t, data)
	fi := buildFull(t, rd, 2)
	all, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	lo := all[len(all)/4].Time
	hi := all[3*len(all)/4].Time
	checkWindow(t, rd, fi, lo, hi)
	checkWindow(t, rd, fi, 0, ^uint64(0))
	checkWindow(t, rd, fi, hi, lo)
}

func TestPartialAndAnomalyFlags(t *testing.T) {
	tr := core.MustNew(core.Config{CPUs: 1, BufWords: 32, NumBufs: 2,
		Mode: core.Stream, Clock: clock.NewManual(1)})
	tr.EnableAll()
	var buf bytes.Buffer
	wait := CaptureAsync(tr, &buf)
	c := tr.CPU(0)
	c.Log1(event.MajorTest, 1, 1)
	c.ReserveOnly(event.MajorTest, 2, 2) // killed mid-log
	c.Log1(event.MajorTest, 3, 3)
	tr.Stop()
	st, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Anomalies == 0 {
		t.Error("capture did not flag the anomaly")
	}
	rd := newReader(t, buf.Bytes())
	anoms, err := rd.Anomalies()
	if err != nil {
		t.Fatal(err)
	}
	if len(anoms) != 1 {
		t.Fatalf("got %d anomalous blocks, want 1", len(anoms))
	}
	if !anoms[0].partial() {
		t.Error("the flushed current buffer should be partial")
	}
	// The block after the garble hole still yields the trailing event.
	evs, dst, err := rd.Events(anoms[0].Seq2Block(rd))
	if err != nil {
		t.Fatal(err)
	}
	if dst.SkippedWords == 0 {
		t.Error("decode should skip the unwritten reservation")
	}
	found := false
	for _, e := range evs {
		if e.Major() == event.MajorTest && e.Minor() == 3 {
			found = true
		}
	}
	if !found {
		t.Error("event after hole not recovered")
	}
}

// Seq2Block locates the file block carrying this header (test helper).
func (h BlockHeader) Seq2Block(rd *Reader) int {
	for k := 0; k < rd.NumBlocks(); k++ {
		g, _, err := rd.Block(k)
		if err == nil && g.CPU == h.CPU && g.Seq == h.Seq {
			return k
		}
	}
	return -1
}

func TestReaderRejectsTruncatedFile(t *testing.T) {
	data := runCapture(t, 1, 64, 200)
	if _, err := NewReader(bytes.NewReader(data[:len(data)-5]), int64(len(data)-5)); err == nil {
		t.Error("truncated file accepted")
	}
	if _, err := NewReader(bytes.NewReader(data[:10]), 10); err == nil {
		t.Error("tiny file accepted")
	}
}
