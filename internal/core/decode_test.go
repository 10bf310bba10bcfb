package core

import (
	"reflect"
	"testing"

	"k42trace/internal/event"
)

// The tests below decode sealedBufferWords: one full buffer of Log2 events,
// so every event but the anchor carries two payload words and neighbouring
// payloads sit one header word apart in the block.

// TestDecodeOwnership pins the two lifetimes: DecodeBuffer's events share
// nothing with the block, DecodeInto's are views of it.
func TestDecodeOwnership(t *testing.T) {
	words := sealedBufferWords(t)
	want, wantSt := DecodeBuffer(0, words)
	if len(want) < 3 {
		t.Fatalf("block decodes to %d events", len(want))
	}

	owned, _ := DecodeBuffer(0, words)
	aliased, st := DecodeInto(nil, 0, words)
	if st != wantSt || !reflect.DeepEqual(aliased, want) {
		t.Fatal("DecodeInto and DecodeBuffer disagree on an intact block")
	}
	for i := range words {
		words[i] = 0
	}
	if !reflect.DeepEqual(owned, want) {
		t.Error("DecodeBuffer's events changed when the block was zeroed: they alias it")
	}
	changed := false
	for i := range aliased {
		for j, w := range aliased[i].Data {
			if w != want[i].Data[j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Error("DecodeInto's events kept their payloads when the block was zeroed: they do not alias it")
	}
}

// TestAppendToDataSparesNeighbour: payloads are capped at their own length
// in both forms, so growing one never writes into the next event's words
// (or, for DecodeInto, into the block).
func TestAppendToDataSparesNeighbour(t *testing.T) {
	words := sealedBufferWords(t)
	block := append([]uint64(nil), words...)
	want, _ := DecodeBuffer(0, words)
	for name, evs := range map[string][]event.Event{
		"DecodeBuffer": eventsOf(DecodeBuffer(0, words)),
		"DecodeInto":   eventsOf(DecodeInto(nil, 0, words)),
	} {
		for i := range evs {
			if d := evs[i].Data; len(d) != cap(d) {
				t.Fatalf("%s: event %d payload has len %d, cap %d", name, i, len(d), cap(d))
			}
			_ = append(evs[i].Data, 0xdead, 0xbeef)
		}
		if !reflect.DeepEqual(evs, want) {
			t.Errorf("%s: appending to one event's Data changed another event", name)
		}
	}
	if !reflect.DeepEqual(words, block) {
		t.Error("appending to an aliased Data wrote into the block")
	}
}

func eventsOf(evs []event.Event, _ DecodeStats) []event.Event { return evs }

// TestDecodeAllocs is the tier-1 pin on the decoder's allocation count: a
// per-event allocation coming back fails here, not only in the benchmark.
func TestDecodeAllocs(t *testing.T) {
	words := sealedBufferWords(t)
	n := CountEvents(words)
	if n < 10 {
		t.Fatalf("block holds %d events", n)
	}
	dst := make([]event.Event, 0, n)
	if a := testing.AllocsPerRun(100, func() { dst, _ = DecodeInto(dst[:0], 0, words) }); a != 0 {
		t.Errorf("DecodeInto into a warm dst: %.1f allocations per block, want 0", a)
	}
	var evs []event.Event
	if a := testing.AllocsPerRun(100, func() { evs, _ = DecodeInto(nil, 0, words) }); a != 1 {
		t.Errorf("DecodeInto into nil: %.1f allocations per block, want 1 (the exact event slice)", a)
	}
	if len(evs) != n || cap(evs) != n {
		t.Errorf("DecodeInto grew nil to len %d cap %d for %d events", len(evs), cap(evs), n)
	}
	if a := testing.AllocsPerRun(100, func() { evs, _ = DecodeBuffer(0, words) }); a > 2 {
		t.Errorf("DecodeBuffer: %.1f allocations per block of %d events, want at most 2", a, n)
	}
	if a := testing.AllocsPerRun(100, func() { DecodeBuffer(0, words[:0]) }); a != 0 {
		t.Errorf("DecodeBuffer of an empty block: %.1f allocations, want 0", a)
	}
}
