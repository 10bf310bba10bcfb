package core

import (
	"testing"

	"k42trace/internal/clock"
	"k42trace/internal/event"
)

// --- ZeroFill -----------------------------------------------------------------

func TestZeroFillRequiresStreamMode(t *testing.T) {
	if _, err := New(Config{CPUs: 1, BufWords: 64, NumBufs: 2, ZeroFill: true}); err == nil {
		t.Error("ZeroFill in flight-recorder mode should be rejected")
	}
}

func TestZeroFillScrubsRecycledBuffers(t *testing.T) {
	run := func(zero bool) (staleWords int) {
		tr := MustNew(Config{CPUs: 1, BufWords: 32, NumBufs: 2, Mode: Stream,
			ZeroFill: zero, Clock: clock.NewManual(1)})
		tr.EnableAll()
		done, stop := collect(tr)
		c := tr.CPU(0)
		// Fill several generations with recognizable payloads, then stop
		// mid-buffer: the current buffer's unused tail is previous-
		// generation memory unless zero-filled at release.
		for i := 0; i < 60; i++ {
			c.Log1(event.MajorTest, 1, 0xDEAD0000+uint64(i))
		}
		stop()
		<-done
		// Inspect the slot holding the final partial buffer: the words
		// past the flush offset are the recycled remains.
		a := tr.cpus[0]
		idx := a.Index()
		off := idx & 31
		lo := (idx - off) & a.indexMask
		for i := lo + off; i < lo+32; i++ {
			if a.buf[i] != 0 {
				staleWords++
			}
		}
		return staleWords
	}
	if s := run(false); s == 0 {
		t.Error("without ZeroFill, recycled buffers should retain stale words (test premise)")
	}
	if s := run(true); s != 0 {
		t.Errorf("with ZeroFill, %d stale words survived recycling", s)
	}
}

// --- Redaction -----------------------------------------------------------------

func TestRedactHidesOnlyInvisibleMajors(t *testing.T) {
	tr, _ := newFR(t, 1, 128, 2)
	tr.EnableAll()
	c := tr.CPU(0)
	c.Log1(event.MajorMem, 1, 0x1111)
	c.Log2(event.MajorUser, 2, 0x2222, 0x3333)
	c.Log1(event.MajorMem, 3, 0x4444)
	c.Log0(event.MajorIO, 4)
	old := tr.Quiesce()
	defer tr.SetMask(old)
	idx := tr.cpus[0].Index()
	words := tr.cpus[0].buf[:idx]

	red := Redact(words, VisibleMask(event.MajorMem))
	evs, st := DecodeBuffer(0, red)
	if st.Garbled() {
		t.Fatalf("redacted buffer garbled: %+v", st)
	}
	var visible []event.Event
	for _, e := range evs {
		if e.Major() != event.MajorControl {
			visible = append(visible, e)
		}
	}
	if len(visible) != 2 {
		t.Fatalf("got %d visible events, want 2 MEM events", len(visible))
	}
	for _, e := range visible {
		if e.Major() != event.MajorMem {
			t.Errorf("leaked event %v", e.Header)
		}
	}
	// Hidden payloads must not appear anywhere in the redacted words.
	for _, w := range red {
		if w == 0x2222 || w == 0x3333 {
			t.Fatal("hidden payload leaked through redaction")
		}
	}
	// Alignment preserved: redacted buffer has the same length and the
	// same event-boundary structure (total decoded words match).
	if len(red) != len(words) {
		t.Fatal("redaction changed buffer size")
	}
	// Timestamps stay monotone.
	var prev uint64
	for _, e := range evs {
		if e.Time < prev {
			t.Fatal("redaction broke timestamp monotonicity")
		}
		prev = e.Time
	}
}

func TestRedactScrubsGarble(t *testing.T) {
	words := []uint64{
		uint64(event.MakeHeader(1, 2, event.MajorUser, 1)), 0xAAAA,
		0xffffffffffffffff, // garble (length field = max, overruns)
		uint64(event.MakeHeader(2, 1, event.MajorMem, 2)),
	}
	red := Redact(words, VisibleMask(event.MajorMem))
	if red[2] != 0 {
		t.Errorf("garble word not scrubbed: %x", red[2])
	}
	if red[1] == 0xAAAA {
		t.Error("hidden payload survived")
	}
}

func TestRedactSealedCopies(t *testing.T) {
	orig := Sealed{Words: []uint64{
		uint64(event.MakeHeader(1, 2, event.MajorUser, 1)), 0xBEEF,
	}}
	red := Redact(orig.Words, 0)
	if orig.Words[1] != 0xBEEF {
		t.Error("redaction modified the original")
	}
	if red[1] == 0xBEEF {
		t.Error("redacted copy retains payload")
	}
}

func TestVisibleMask(t *testing.T) {
	m := VisibleMask(event.MajorMem, event.MajorIO)
	if m != event.MajorMem.Bit()|event.MajorIO.Bit() {
		t.Errorf("mask %x", m)
	}
}
