package core

import (
	"testing"
	"testing/quick"

	"k42trace/internal/event"
)

// The paper's tools must keep working on arbitrary garbage ("our tools
// have ways of handling this situation"); these properties pin that down:
// no input may panic a decoder, and resynchronization must terminate.

func TestDecodeBufferNeverPanicsOnRandomWords(t *testing.T) {
	f := func(words []uint64) bool {
		evs, st := DecodeBuffer(0, words)
		// Conservation: every word is consumed exactly once as event
		// content, filler, or skipped garble.
		consumed := st.FillerWords + st.SkippedWords
		for _, e := range evs {
			if !e.Header.IsFiller() {
				consumed += 1 + len(e.Data)
			}
		}
		return consumed == len(words)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBufferOnAllSameWord(t *testing.T) {
	for _, w := range []uint64{0, ^uint64(0), 0x0000040000000000} {
		words := make([]uint64, 256)
		for i := range words {
			words[i] = w
		}
		evs, st := DecodeBuffer(0, words)
		_ = evs
		_ = st
	}
}

func TestRedactNeverPanicsAndPreservesLength(t *testing.T) {
	f := func(words []uint64, visible uint64) bool {
		out := Redact(words, visible)
		if len(out) != len(words) {
			return false
		}
		// Redacted output must itself decode without panicking, and must
		// contain no event whose major is hidden (Control excepted).
		evs, _ := DecodeBuffer(0, out)
		for _, e := range evs {
			m := e.Major()
			if m != event.MajorControl && m.Bit()&visible == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any sequence of event sizes, the sum of logged words,
// filler words, and anchor words exactly accounts for the index advance —
// no space is lost or double-counted by the reservation algorithm.
func TestReservationAccountingProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		tr := MustNew(Config{CPUs: 1, BufWords: 64, NumBufs: 4})
		tr.EnableAll()
		c := tr.CPU(0)
		payload := make([]uint64, 61)
		for _, s := range sizes {
			c.LogWords(event.MajorTest, 1, payload[:int(s)%8])
		}
		st := tr.Stats()
		idx := tr.cpus[0].Index()
		return st.Words+st.FillerWords+st.Anchors*anchorWords == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
