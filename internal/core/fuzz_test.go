package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"k42trace/internal/clock"
	"k42trace/internal/event"
)

var updateFuzzSeeds = flag.Bool("updatefuzzseeds", false,
	"regenerate the checked-in fuzz seed corpus under testdata/fuzz")

// FuzzDecodeBlock throws arbitrary bytes at the buffer decoder — the
// first consumer of every damaged trace. Whatever the input, decode must
// not panic, and it must conserve words: every word in the buffer is part
// of a decoded event, counted as filler, or reported skipped. That
// conservation law is what lets salvage turn skip counts into exact
// data-loss figures.
func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		words := make([]uint64, len(b)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		evs, st := DecodeBuffer(0, words)
		sum := st.FillerWords + st.SkippedWords
		for i := range evs {
			sum += 1 + len(evs[i].Data)
		}
		if sum != len(words) {
			t.Fatalf("word conservation broken: %d events + %d filler + %d skipped = %d words, buffer has %d",
				len(evs), st.FillerWords, st.SkippedWords, sum, len(words))
		}
		if st.Events != len(evs) {
			t.Fatalf("stats count %d events, decode returned %d", st.Events, len(evs))
		}
		// The owning and the aliasing form are one decoder: same events,
		// same stats, and the sizing pass agrees with the decode on garbled
		// input too, so both results are exactly as long as they are wide.
		aliased, ast := DecodeInto(nil, 0, words)
		if ast != st || !reflect.DeepEqual(aliased, evs) {
			t.Fatalf("DecodeInto decoded %d events (%+v), DecodeBuffer %d (%+v)", len(aliased), ast, len(evs), st)
		}
		if cap(evs) != len(evs) || cap(aliased) != len(aliased) {
			t.Fatalf("sizing pass missed: len/cap %d/%d owned, %d/%d aliased",
				len(evs), cap(evs), len(aliased), cap(aliased))
		}
		// Appending to a dst that already holds events keeps them.
		if len(evs) > 0 {
			both, _ := DecodeInto(aliased[:len(aliased):len(aliased)], 0, words)
			if len(both) != 2*len(evs) || !reflect.DeepEqual(both[:len(evs)], evs) || !reflect.DeepEqual(both[len(evs):], evs) {
				t.Fatalf("DecodeInto onto a full dst of %d events returned %d", len(evs), len(both))
			}
		}
		// Decoded a stretch at a time — an event, a few, more than a block of
		// this size holds — the block is what it is decoded at once: the same
		// events, their payloads the same words of the buffer, the same
		// statistics once the decoder is done.
		for _, chunk := range []int{1, 7, 256} {
			var d Decoder
			if !d.Done() {
				t.Fatal("the zero Decoder is not done")
			}
			d.Reset(0, words)
			lent := make([]event.Event, 0, chunk)
			var all []event.Event
			for !d.Done() {
				lent = d.Fill(lent[:0])
				if len(lent) == 0 && !d.Done() {
					t.Fatalf("chunk %d: Fill made no progress at event %d", chunk, len(all))
				}
				all = append(all, lent...)
			}
			if d.Stats() != st || !reflect.DeepEqual(all, aliased) {
				t.Fatalf("chunk %d: %d events (%+v) a chunk at a time, %d (%+v) at once", chunk, len(all), d.Stats(), len(aliased), st)
			}
			for i := range all {
				if a, b := all[i].Data, aliased[i].Data; len(a) > 0 && (&a[0] != &b[0] || cap(a) != len(a)) {
					t.Fatalf("chunk %d: event %d's payload is not its %d words of the buffer", chunk, i, len(b))
				}
			}
		}
	})
}

// TestFuzzSeedCorpus keeps the checked-in seed corpus honest: run with
// -updatefuzzseeds it rewrites testdata/fuzz from a real sealed buffer
// (clean, garbled, and hole variants); without the flag it verifies the
// seeds exist so the CI fuzz smoke job never starts from nothing.
func TestFuzzSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeBlock")
	if !*updateFuzzSeeds {
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) == 0 {
			t.Fatalf("seed corpus missing (run go test -updatefuzzseeds ./internal/core/): %v", err)
		}
		return
	}
	words := sealedBufferWords(t)
	clean := wordBytes(words)
	garbled := append([]byte(nil), clean...)
	garbled[9] ^= 0x40 // damage the first event header
	hole := append([]byte(nil), clean...)
	for i := 40; i < 120 && i < len(hole); i++ {
		hole[i] = 0 // a zero-filled dead reservation
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"sealed-clean": clean, "sealed-garbled": garbled, "sealed-hole": hole,
	} {
		writeSeed(t, filepath.Join(dir, name), data)
	}
}

// sealedBufferWords captures one full sealed buffer from a live tracer.
func sealedBufferWords(t *testing.T) []uint64 {
	t.Helper()
	tr := MustNew(Config{CPUs: 1, BufWords: 64, NumBufs: 4, Mode: Stream,
		Clock: clock.NewManual(1)})
	tr.EnableAll()
	done, stop := collect(tr)
	c := tr.CPU(0)
	for i := 0; i < 100; i++ {
		c.Log2(event.MajorTest, 2, uint64(i), uint64(i)*3)
	}
	stop()
	for _, b := range <-done {
		if !b.part {
			return b.words
		}
	}
	t.Fatal("no full buffer sealed")
	return nil
}

func wordBytes(words []uint64) []byte {
	b := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return b
}

// writeSeed stores data as a Go fuzzing corpus file.
func writeSeed(t *testing.T, path string, data []byte) {
	t.Helper()
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
