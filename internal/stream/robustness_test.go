package stream

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

// Random bytes must never panic the readers — they must fail with errors.

func TestNewReaderNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return true // rejected cleanly
		}
		// If the header happened to validate, every accessor must stay
		// within errors, not panics.
		for k := 0; k < rd.NumBlocks() && k < 4; k++ {
			rd.Block(k)
			rd.Events(k)
		}
		rd.BuildFullIndex(2, nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockStreamNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		bs, err := NewBlockStream(bytes.NewReader(data))
		if err != nil {
			return true
		}
		for i := 0; i < 8; i++ {
			if _, _, err := bs.Next(nil); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Corrupting a valid file must degrade to errors or garble reports, never
// to panics or silent misreads of other blocks.
func TestReaderToleratesFlippedBits(t *testing.T) {
	data := runCapture(t, 2, 64, 300)
	for _, pos := range []int{70, 200, len(data) / 2, len(data) - 9} {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x80
		rd, err := NewReader(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			continue // header corruption: rejected outright
		}
		for k := 0; k < rd.NumBlocks(); k++ {
			// Block header corruption returns an error; data corruption
			// surfaces as skipped words. Either is acceptable; a panic or
			// a hang is not.
			if _, _, err := rd.Events(k); err != nil {
				continue
			}
		}
		rd.Anomalies()
	}
}

func TestBlockStreamEmptyStream(t *testing.T) {
	// Just a header, no blocks: Next returns io.EOF immediately.
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Meta{BufWords: 64, CPUs: 1, ClockHz: 1e9}); err != nil {
		t.Fatal(err)
	}
	bs, err := NewBlockStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bs.Next(nil); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
}
