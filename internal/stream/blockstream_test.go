package stream

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// streamFixture serializes a few blocks and returns the raw bytes plus
// the written headers and payloads.
func streamFixture(t *testing.T, nBlocks int) ([]byte, []BlockHeader, [][]uint64) {
	t.Helper()
	meta := Meta{BufWords: 32, CPUs: 2, ClockHz: 1e9}
	var buf bytes.Buffer
	wr, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	var hs []BlockHeader
	var ws [][]uint64
	for k := 0; k < nBlocks; k++ {
		words := make([]uint64, meta.BufWords)
		for i := range words {
			words[i] = uint64(k)<<32 | uint64(i)
		}
		h := BlockHeader{CPU: k % meta.CPUs, NWords: len(words), Seq: uint64(k / meta.CPUs), Committed: 7}
		if err := wr.WriteBlock(h, words); err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
		ws = append(ws, words)
	}
	return buf.Bytes(), hs, ws
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNextSurvivesDamagedBlock destroys one mid-stream block magic: the
// damaged block must come back as a *BlockDamageError with the right
// index, and every other block must still read cleanly afterwards, header
// and payload as written — the fixed stride keeps the stream aligned
// across the damage.
func TestNextSurvivesDamagedBlock(t *testing.T) {
	data, hs, ws := streamFixture(t, 6)
	meta, err := ParseFileHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	g := meta.Geometry()
	const bad = 2
	off := g.FileHeaderBytes + bad*g.BlockBytes
	data[off] ^= 0xff // corrupt the block magic

	bs, err := NewBlockStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	damaged := 0
	for k := 0; ; k++ {
		h, words, err := bs.Next(nil)
		if err == io.EOF {
			break
		}
		var d *BlockDamageError
		if errors.As(err, &d) {
			if d.Block != bad {
				t.Fatalf("damage reported at block %d, corrupted block %d", d.Block, bad)
			}
			if d.Offset != int64(off) {
				t.Fatalf("damage reported at offset %d, want %d", d.Offset, off)
			}
			damaged++
			continue
		}
		if err != nil {
			t.Fatalf("block %d: %v", k, err)
		}
		if h != hs[k] {
			t.Fatalf("block %d: header %+v want %+v", k, h, hs[k])
		}
		if !equalWords(words, ws[k]) {
			t.Fatalf("block %d: payload mismatch", k)
		}
		got++
	}
	if damaged != 1 || got != len(hs)-1 {
		t.Fatalf("read %d clean + %d damaged blocks, want %d + 1", got, damaged, len(hs)-1)
	}
}

// TestNextTornTailStillTerminal clips the final block mid-payload: that
// must remain a terminal error (not a damage record), because a short
// read means the stream can never realign.
func TestNextTornTailStillTerminal(t *testing.T) {
	data, _, _ := streamFixture(t, 3)
	torn := data[:len(data)-40]
	bs, err := NewBlockStream(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, err := bs.Next(nil)
		if err == nil {
			continue
		}
		if err == io.EOF {
			t.Fatal("torn stream ended with clean EOF")
		}
		var d *BlockDamageError
		if errors.As(err, &d) {
			t.Fatalf("torn tail classified as continuable damage: %v", err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
		}
		return
	}
}

// TestCopyToCountsDamageAndTornTail runs the pump over a stream with one
// destroyed block magic and a final block clipped mid-payload: the
// damaged block is counted and skipped, every whole block on either side
// of it reaches the sink as written, and the counts come back alongside
// the terminal error.
func TestCopyToCountsDamageAndTornTail(t *testing.T) {
	data, hs, ws := streamFixture(t, 6)
	meta, err := ParseFileHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	g := meta.Geometry()
	const bad = 2
	data[g.FileHeaderBytes+bad*g.BlockBytes] ^= 0xff
	hs[1].Flags |= FlagAnomalous
	copy(data[g.FileHeaderBytes+1*g.BlockBytes:], encodeBlockHeader(hs[1]))

	bs, err := NewBlockStream(bytes.NewReader(data[:len(data)-40]))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3, 4}
	var got []int
	st, err := bs.CopyTo(SinkFunc(func(h BlockHeader, words []uint64) error {
		k := want[len(got)]
		if h != hs[k] || !equalWords(words, ws[k]) {
			t.Errorf("sink block %d is not stream block %d", len(got), k)
		}
		got = append(got, k)
		return nil
	}))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn tail: want io.ErrUnexpectedEOF, got %v", err)
	}
	if st != (CopyStats{Blocks: 4, Anomalies: 1, Damaged: 1}) {
		t.Fatalf("stats %+v, want 4 blocks, 1 anomalous, 1 damaged", st)
	}
}

// TestCopyToStopsOnSinkError: a sink that refuses a block ends the copy
// with that error, and the refused block is not counted.
func TestCopyToStopsOnSinkError(t *testing.T) {
	data, _, _ := streamFixture(t, 4)
	bs, err := NewBlockStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	full := errors.New("sink full")
	n := 0
	st, err := bs.CopyTo(SinkFunc(func(BlockHeader, []uint64) error {
		if n++; n == 3 {
			return full
		}
		return nil
	}))
	if err != full || st.Blocks != 2 {
		t.Fatalf("got %+v, %v; want 2 blocks and the sink's error", st, err)
	}
}
