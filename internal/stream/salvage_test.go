package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"k42trace/internal/core"
	"k42trace/internal/event"
)

// salvageWorkerCounts mirrors the parallel-analysis determinism matrix.
var salvageWorkerCounts = []int{1, 2, 8}

// expectEvents re-assembles the merged event stream from a subset of a
// clean file's blocks (optionally with the last block's words clipped),
// mirroring exactly what a correct salvage must recover.
func expectEvents(t *testing.T, rd *Reader, skip map[int]bool, clipLast int) []event.Event {
	t.Helper()
	perCPU := map[int][]event.Event{}
	var cpus []int
	for k := 0; k < rd.NumBlocks(); k++ {
		if skip[k] {
			continue
		}
		h, words, err := rd.Block(k)
		if err != nil {
			t.Fatal(err)
		}
		if clipLast >= 0 && k == rd.NumBlocks()-1 && len(words) > clipLast {
			words = words[:clipLast]
		}
		evs, _ := core.DecodeBuffer(h.CPU, words)
		if len(evs) == 0 {
			continue
		}
		if _, ok := perCPU[h.CPU]; !ok {
			cpus = append(cpus, h.CPU)
		}
		perCPU[h.CPU] = append(perCPU[h.CPU], evs...)
	}
	sort.Ints(cpus)
	var streams [][]event.Event
	for _, c := range cpus {
		streams = append(streams, perCPU[c])
	}
	return MergeByTime(streams...)
}

func TestSalvageCleanMatchesReadAll(t *testing.T) {
	data := runCapture(t, 4, 64, 600)
	rd := newReader(t, data)
	want, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range salvageWorkerCounts {
		got, rep, err := Salvage(bytes.NewReader(data), int64(len(data)), w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: salvaged events differ from ReadAll", w)
		}
		if !rep.Clean() {
			t.Errorf("workers=%d: clean file reported dirty:\n%s", w, rep)
		}
		if rep.BlocksGood != rd.NumBlocks() || rep.EventsRecovered != len(want) {
			t.Errorf("workers=%d: good=%d/%d events=%d/%d",
				w, rep.BlocksGood, rd.NumBlocks(), rep.EventsRecovered, len(want))
		}
	}
}

// TestSalvageQuarantinesBadMagic is the exact-recovery acceptance test:
// one block with a smashed magic must cost exactly that block's events
// and nothing else, and the loss must be reported precisely.
func TestSalvageQuarantinesBadMagic(t *testing.T) {
	data := runCapture(t, 2, 64, 600)
	rd := newReader(t, data)
	if rd.NumBlocks() < 4 {
		t.Fatalf("trace too small: %d blocks", rd.NumBlocks())
	}
	k := rd.NumBlocks() / 2
	victim, _, err := rd.Block(k)
	if err != nil {
		t.Fatal(err)
	}
	geo := rd.Meta().Geometry()
	bad := append([]byte(nil), data...)
	bad[geo.FileHeaderBytes+k*geo.BlockBytes] ^= 0xff // break the magic

	want := expectEvents(t, rd, map[int]bool{k: true}, -1)
	got, rep, err := Salvage(bytes.NewReader(bad), int64(len(bad)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("salvage did not recover exactly the events outside the bad block (got %d, want %d)",
			len(got), len(want))
	}
	if rep.BlocksSkipped != 1 || len(rep.Skipped) != 1 {
		t.Fatalf("skipped = %d, want 1:\n%s", rep.BlocksSkipped, rep)
	}
	bb := rep.Skipped[0]
	if bb.Block != k || bb.Offset != int64(geo.FileHeaderBytes+k*geo.BlockBytes) {
		t.Errorf("skipped block %d @ %d, want %d @ %d", bb.Block, bb.Offset,
			k, geo.FileHeaderBytes+k*geo.BlockBytes)
	}
	if !strings.Contains(bb.Cause, "magic") {
		t.Errorf("cause %q does not name the bad magic", bb.Cause)
	}
	if rep.LostBlocks != 1 {
		t.Errorf("LostBlocks = %d, want 1 (seq gap on cpu %d)", rep.LostBlocks, victim.CPU)
	}
	for _, c := range rep.PerCPU {
		wantLost := 0
		if c.CPU == victim.CPU {
			wantLost = 1
		}
		if c.LostBlocks != wantLost {
			t.Errorf("cpu %d: LostBlocks = %d, want %d", c.CPU, c.LostBlocks, wantLost)
		}
	}
}

func TestSalvageZeroedRegionSkipsWordsOnly(t *testing.T) {
	data := runCapture(t, 1, 64, 200)
	rd := newReader(t, data)
	geo := rd.Meta().Geometry()
	k := 1
	bad := append([]byte(nil), data...)
	// Zero 10 words mid-payload: the decoder must resync within the block.
	lo := geo.FileHeaderBytes + k*geo.BlockBytes + geo.BlockHeaderBytes + 20*8
	for i := lo; i < lo+10*8; i++ {
		bad[i] = 0
	}
	got, rep, err := Salvage(bytes.NewReader(bad), int64(len(bad)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksSkipped != 0 {
		t.Fatalf("whole block quarantined for a payload hole:\n%s", rep)
	}
	if rep.Stats.SkippedWords == 0 {
		t.Error("zeroed words not reported as skipped")
	}
	want, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Everything outside the hole survives; the hole costs some events of
	// block k only.
	if len(got) >= len(want) || len(got) < len(want)-20 {
		t.Errorf("recovered %d events of %d", len(got), len(want))
	}
}

func TestSalvageTruncatedTail(t *testing.T) {
	data := runCapture(t, 2, 64, 400)
	rd := newReader(t, data)
	geo := rd.Meta().Geometry()
	last := rd.NumBlocks() - 1
	// Keep the last block's header plus 24 payload words.
	const keepWords = 24
	cut := geo.FileHeaderBytes + last*geo.BlockBytes + geo.BlockHeaderBytes + keepWords*8
	bad := data[:cut]

	if _, err := NewReader(bytes.NewReader(bad), int64(len(bad))); err == nil {
		t.Fatal("strict reader accepted a truncated file")
	}
	want := expectEvents(t, rd, nil, keepWords)
	got, rep, err := Salvage(bytes.NewReader(bad), int64(len(bad)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TailSalvaged || rep.TailBytes == 0 {
		t.Fatalf("tail not salvaged:\n%s", rep)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("truncated-tail salvage: got %d events, want %d", len(got), len(want))
	}
}

func TestSalvageRecoversDestroyedFileHeader(t *testing.T) {
	data := runCapture(t, 3, 64, 500)
	rd := newReader(t, data)
	want, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	for i := 0; i < 24; i++ { // magic, version, bufWords: all gone
		bad[i] = 0xa5
	}
	got, rep, err := Salvage(bytes.NewReader(bad), int64(len(bad)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.MetaRecovered {
		t.Fatal("MetaRecovered not set")
	}
	if rep.Meta.BufWords != rd.Meta().BufWords || rep.Meta.CPUs != rd.Meta().CPUs {
		t.Errorf("recovered meta %+v, want bufWords=%d cpus=%d",
			rep.Meta, rd.Meta().BufWords, rd.Meta().CPUs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered %d events, want %d", len(got), len(want))
	}
}

func TestSalvageDedupAndReorder(t *testing.T) {
	data := runCapture(t, 2, 64, 400)
	rd := newReader(t, data)
	want, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	geo := rd.Meta().Geometry()
	n := rd.NumBlocks()
	if n < 4 {
		t.Fatalf("trace too small: %d blocks", n)
	}
	blockBytes := func(k int) []byte {
		off := geo.FileHeaderBytes + k*geo.BlockBytes
		return data[off : off+geo.BlockBytes]
	}
	// Find the first two blocks of the same CPU: swapping them reorders
	// within that CPU's sequence stream.
	first, _, err := rd.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	second := -1
	for k := 1; k < n; k++ {
		h, _, err := rd.Block(k)
		if err != nil {
			t.Fatal(err)
		}
		if h.CPU == first.CPU {
			second = k
			break
		}
	}
	if second < 0 {
		t.Fatalf("no second block for cpu %d", first.CPU)
	}
	// Rebuild the file with that pair swapped and the following block
	// delivered twice — a reordering, retrying relay.
	var bad bytes.Buffer
	bad.Write(data[:geo.FileHeaderBytes])
	order := []int{second}
	for k := 1; k < second; k++ {
		order = append(order, k)
	}
	order = append(order, 0, second+1, second+1)
	for k := second + 2; k < n; k++ {
		order = append(order, k)
	}
	for _, k := range order {
		bad.Write(blockBytes(k))
	}
	got, rep, err := Salvage(bytes.NewReader(bad.Bytes()), int64(bad.Len()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DupBlocks != 1 {
		t.Errorf("DupBlocks = %d, want 1:\n%s", rep.DupBlocks, rep)
	}
	if rep.Reordered == 0 {
		t.Errorf("reordered delivery not detected:\n%s", rep)
	}
	if rep.LostBlocks != 0 {
		t.Errorf("LostBlocks = %d, want 0", rep.LostBlocks)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dedup+reorder salvage: got %d events, want %d (clean)", len(got), len(want))
	}
}

func TestSalvageToRoundTrip(t *testing.T) {
	data := runCapture(t, 2, 64, 500)
	rd := newReader(t, data)
	geo := rd.Meta().Geometry()
	bad := append([]byte(nil), data...)
	bad[geo.FileHeaderBytes+2*geo.BlockBytes+3] ^= 0x40 // one bad magic
	cut := len(bad) - geo.BlockBytes/2                  // and a torn final block
	bad = bad[:cut-cut%8]

	want, wantRep, err := Salvage(bytes.NewReader(bad), int64(len(bad)), 2)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	rep, err := SalvageTo(bytes.NewReader(bad), int64(len(bad)), &out, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() != wantRep.String() {
		t.Errorf("SalvageTo report differs from Salvage report")
	}
	// The rewritten file must open with the strict reader and decode to
	// exactly the salvaged events.
	rrd, err := NewReader(bytes.NewReader(out.Bytes()), int64(out.Len()))
	if err != nil {
		t.Fatalf("repaired file unreadable: %v", err)
	}
	got, _, err := rrd.ReadAll()
	if err != nil {
		t.Fatalf("repaired file undecodable: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("repaired file decodes to %d events, salvage recovered %d", len(got), len(want))
	}
	// Re-salvaging the repaired file quarantines nothing (the seq gap
	// from the quarantined source block remains, and is reported).
	_, rep2, err := Salvage(bytes.NewReader(out.Bytes()), int64(out.Len()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.BlocksSkipped != 0 {
		t.Errorf("repaired file still has %d quarantined blocks", rep2.BlocksSkipped)
	}
	if rep2.LostBlocks != rep.LostBlocks {
		t.Errorf("repaired file reports %d lost blocks, want %d", rep2.LostBlocks, rep.LostBlocks)
	}
}

// TestSalvageToKeepsNoWords: a rewrite holds one block at a time — in the
// scan worker's scratch, then in the writer's stride buffer — so it
// allocates what a block costs to track and far less than the input's size,
// for a capture in order and for one it has to re-sequence. Keeping the
// surviving blocks' words until they were written, as the scan did at the
// parent commit, is the input once over.
func TestSalvageToKeepsNoWords(t *testing.T) {
	clean := runCapture(t, 2, 1024, 120_000)
	for _, row := range []struct {
		name string
		data []byte
	}{
		{"clean", clean},
		{"out-of-sequence", slotOrder(t, clean)},
	} {
		t.Run(row.name, func(t *testing.T) {
			src := bytes.NewReader(row.data)
			nBlk := newReader(t, row.data).NumBlocks()
			if nBlk < 40 {
				t.Fatalf("want many blocks, got %d", nBlk)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := SalvageTo(src, int64(len(row.data)), io.Discard, 1)
			runtime.ReadMemStats(&after)
			if err != nil || rep.BlocksGood != nBlk {
				t.Fatalf("salvage of a whole capture: %v\n%v", err, rep)
			}
			const perBlock = 1 << 10
			got := after.TotalAlloc - before.TotalAlloc
			if limit := uint64(len(row.data)/2 + nBlk*perBlock); got > limit {
				t.Errorf("SalvageTo of %d bytes in %d blocks allocated %d bytes, limit %d", len(row.data), nBlk, got, limit)
			}
		})
	}
}

func TestSalvageWorkerDeterminism(t *testing.T) {
	data := runCapture(t, 4, 64, 800)
	rd := newReader(t, data)
	geo := rd.Meta().Geometry()
	bad := append([]byte(nil), data...)
	bad[geo.FileHeaderBytes+1*geo.BlockBytes] ^= 0x01
	bad[geo.FileHeaderBytes+4*geo.BlockBytes+geo.BlockHeaderBytes+8] ^= 0x80
	bad = bad[:len(bad)-56]

	var wantEvs []event.Event
	var wantRep string
	for _, w := range salvageWorkerCounts {
		evs, rep, err := Salvage(bytes.NewReader(bad), int64(len(bad)), w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if wantRep == "" {
			wantEvs, wantRep = evs, rep.String()
			continue
		}
		if !reflect.DeepEqual(evs, wantEvs) {
			t.Errorf("workers=%d: salvaged events differ from workers=1", w)
		}
		if rep.String() != wantRep {
			t.Errorf("workers=%d: report differs from workers=1:\n%s\n---\n%s", w, rep, wantRep)
		}
	}
}

func TestSalvageUnrecoverable(t *testing.T) {
	junk := bytes.Repeat([]byte{0x42}, 4096)
	if _, _, err := Salvage(bytes.NewReader(junk), int64(len(junk)), 2); err == nil {
		t.Error("salvage of structureless junk did not error")
	}
	if _, _, err := Salvage(bytes.NewReader(nil), 0, 2); err == nil {
		t.Error("salvage of empty input did not error")
	}
}

// TestReaderTruncatedBlockErrorContext pins the satellite fix: a read
// failure mid-file must name the block and offset, not surface a bare
// io.ErrUnexpectedEOF / io.EOF.
func TestReaderTruncatedBlockErrorContext(t *testing.T) {
	data := runCapture(t, 1, 64, 200)
	rd, err := NewReader(bytes.NewReader(data[:len(data)-16]), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = rd.ReadAll()
	if err == nil {
		t.Fatal("truncated read succeeded")
	}
	last := rd.NumBlocks() - 1
	geo := rd.Meta().Geometry()
	wantOff := int64(geo.FileHeaderBytes + last*geo.BlockBytes)
	for _, needle := range []string{
		"block", // the block index
	} {
		if !strings.Contains(err.Error(), needle) {
			t.Errorf("error %q missing %q", err, needle)
		}
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Errorf("error %q does not report the file offset (want offset %d)", err, wantOff)
	}
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("wrapped error lost the underlying EOF: %v", err)
	}
}

// TestDamagedBlockMeansTheSameToEveryReader is the fault × reader table: a
// block the salvager quarantines is the block every strict reader fails
// on, at the same offset and for the same cause — there is one place a
// block is admitted, and strict and tolerant differ only in what they do
// with its verdict.
func TestDamagedBlockMeansTheSameToEveryReader(t *testing.T) {
	clean := runCapture(t, 2, 64, 600)
	rd := newReader(t, clean)
	k := rd.NumBlocks() / 2
	hdr := func(data []byte) []byte { return data[rd.blockOff(k):] }
	faults := []struct {
		name   string
		damage func(data []byte) []byte
	}{
		{"bad block magic", func(d []byte) []byte { hdr(d)[0] ^= 0xff; return d }},
		{"NWords > BufWords", func(d []byte) []byte {
			putWord(hdr(d), 1, getWord(hdr(d), 1)&(1<<32-1)|uint64(rd.Meta().BufWords+1)<<32)
			return d
		}},
		{"CPU >= CPUs", func(d []byte) []byte {
			putWord(hdr(d), 1, getWord(hdr(d), 1)&^0xffff|uint64(rd.Meta().CPUs))
			return d
		}},
		// Too little of the last block left to hold a header: nothing for
		// the salvager to clip, so it quarantines the fragment.
		{"truncated tail", func(d []byte) []byte { return d[:rd.blockOff(rd.NumBlocks()-1)+16] }},
	}
	strict := func(read func(*Reader) error) func([]byte) error {
		return func(data []byte) error {
			rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				return err
			}
			return read(rd)
		}
	}
	readers := []struct {
		name string
		read func(data []byte) error
	}{
		{"ReadAll", strict(func(rd *Reader) error { _, _, err := rd.ReadAll(); return err })},
		{"ReadAllParallel(8)", strict(func(rd *Reader) error { _, _, err := rd.ReadAllParallel(8); return err })},
		{"BuildFullIndex", strict(func(rd *Reader) error { _, err := rd.BuildFullIndex(8, nil); return err })},
		{"BlockStream", func(data []byte) error {
			bs, err := NewBlockStream(bytes.NewReader(data))
			for err == nil {
				_, _, err = bs.Next(nil)
			}
			return err
		}},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			data := f.damage(append([]byte(nil), clean...))
			_, rep, err := Salvage(bytes.NewReader(data), int64(len(data)), 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Skipped) != 1 {
				t.Fatalf("salvage quarantined %d blocks, want 1:\n%s", len(rep.Skipped), rep)
			}
			bad := rep.Skipped[0]
			at := fmt.Sprintf("stream: block %d (offset %d)", bad.Block, bad.Offset)
			for _, r := range readers {
				err := r.read(data)
				if err == nil || err == io.EOF {
					t.Errorf("%s read the damaged trace without an error (%v)", r.name, err)
				} else if msg := err.Error(); !strings.HasPrefix(msg, at) || !strings.HasSuffix(msg, ": "+bad.Cause) {
					t.Errorf("%s failed with %q, salvage quarantined %s for %q", r.name, msg, at, bad.Cause)
				}
			}
		})
	}
}
