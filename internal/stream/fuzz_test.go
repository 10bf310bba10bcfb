package stream

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/ksim"
)

var updateFuzzSeeds = flag.Bool("updatefuzzseeds", false,
	"regenerate the checked-in fuzz seed corpus under testdata/fuzz")

// fuzzInputCap bounds fuzz inputs to a megabyte: geometry fields in a
// crafted header are already range-checked, so larger inputs only slow
// the fuzzer down without reaching new code.
const fuzzInputCap = 1 << 20

// FuzzReadStream feeds arbitrary bytes to both trace consumers — the
// random-access Reader and the sequential BlockStream. Neither may panic,
// the Reader must stay worker-count deterministic even on garbage, and a
// window read through the index must be the whole read, filtered.
func FuzzReadStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("K42TRACE"))
	f.Add(bytes.Repeat([]byte{0x4b}, 128))
	_, dump := crashDump(f, true) // wrapped, partial and anomalous blocks
	f.Add(dump)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > fuzzInputCap {
			t.Skip()
		}
		if rd, err := NewReader(bytes.NewReader(b), int64(len(b))); err == nil {
			evs1, st1, err1 := rd.ReadAllParallel(1)
			evs3, st3, err3 := rd.ReadAllParallel(3)
			if (err1 == nil) != (err3 == nil) {
				t.Fatalf("worker count changes outcome: %v vs %v", err1, err3)
			}
			if err1 == nil {
				if st1 != st3 || !reflect.DeepEqual(evs1, evs3) {
					t.Fatal("worker count changes decoded result")
				}
				// The oracle of the run merge: the stable (Time, CPU) sort
				// of the blocks' events, concatenated in file order.
				var all []event.Event
				for k := 0; k < rd.NumBlocks(); k++ {
					evs, _, _ := rd.Events(k)
					all = append(all, evs...)
				}
				sortEvents(all)
				if !reflect.DeepEqual(evs1, all) {
					t.Fatal("merged read differs from the stable sort of its blocks")
				}
				// A window read through the index is the whole read
				// filtered to the window.
				fi, err := rd.BuildFullIndex(2, nil)
				if err != nil {
					t.Fatalf("the index refuses a file the whole read takes: %v", err)
				}
				checkWindow(t, rd, fi, 0, ^uint64(0))
				if n := len(evs1); n > 0 {
					checkWindow(t, rd, fi, evs1[n/4].Time, evs1[3*n/4].Time)
				}
			}
			rd.Anomalies()
		}
		if bs, err := NewBlockStream(bytes.NewReader(b)); err == nil {
			for {
				if _, _, err := bs.Next(nil); err != nil {
					break
				}
			}
		}
	})
}

// FuzzDecodeIndex drives the sidecar decoder past its checksum: each input
// gets a correct checksum word before it is decoded, so the fuzzer reaches
// the field checks behind it. DecodeIndex must never panic, and an index it
// accepts must round-trip through EncodeIndex and DecodeIndex unchanged.
func FuzzDecodeIndex(f *testing.F) {
	data := runSchedCapture(f, 2, 32, 200)
	rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		f.Fatal(err)
	}
	fi, err := rd.BuildFullIndex(1, nil)
	if err != nil {
		f.Fatal(err)
	}
	valid := EncodeIndex(fi)
	f.Add(valid)
	overflow := append([]byte(nil), valid...)
	putWord(overflow, 6, uint64(len(fi.Blocks))+1<<61) // wraps (header + records)·8
	f.Add(overflow)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > fuzzInputCap {
			t.Skip()
		}
		if len(b) >= idxHdrWords*8 {
			b = append([]byte(nil), b...)
			putWord(b, 2, idxChecksum(b))
		}
		fi, err := DecodeIndex(b)
		if err != nil {
			return
		}
		again, err := DecodeIndex(EncodeIndex(fi))
		if err != nil {
			t.Fatalf("an accepted index does not decode once re-encoded: %v", err)
		}
		if !reflect.DeepEqual(again, fi) {
			t.Fatal("an accepted index changes through EncodeIndex and DecodeIndex")
		}
	})
}

// FuzzSalvage drives the forgiving path: salvage must never panic, its
// event count must match its own report, and whatever it rewrites must
// reopen cleanly under the strict reader.
func FuzzSalvage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("K42TRACE and then some trailing junk"))
	_, dump := crashDump(f, true)
	f.Add(dump)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > fuzzInputCap {
			t.Skip()
		}
		evs, rep, err := Salvage(bytes.NewReader(b), int64(len(b)), 2)
		if err != nil {
			return // unrecoverable input is a valid outcome
		}
		if len(evs) != rep.EventsRecovered {
			t.Fatalf("returned %d events, report claims %d", len(evs), rep.EventsRecovered)
		}
		var out bytes.Buffer
		rep2, err := SalvageTo(bytes.NewReader(b), int64(len(b)), &out, 2)
		if err != nil {
			return // nothing decodable to rewrite
		}
		rd, err := NewReader(bytes.NewReader(out.Bytes()), int64(out.Len()))
		if err != nil {
			t.Fatalf("salvaged rewrite does not reopen: %v", err)
		}
		got, _, err := rd.ReadAll()
		if err != nil {
			t.Fatalf("salvaged rewrite does not read back: %v", err)
		}
		if len(got) != rep2.EventsRecovered {
			t.Fatalf("rewrite decodes %d events, salvage recovered %d", len(got), rep2.EventsRecovered)
		}
		src := bytes.NewReader(b)
		blocks, _, err := SalvageBlocks(src, int64(len(b)), 2, nil)
		if err != nil {
			t.Fatalf("SalvageTo read what SalvageBlocks cannot: %v", err)
		}
		if n := len(decodeDigested(t, src, blocks)); n != rep2.EventsRecovered {
			t.Fatalf("SalvageBlocks words decode to %d events, salvage recovered %d", n, rep2.EventsRecovered)
		}
		// The rewrite copied each block from the source (CopyBlock): it is,
		// byte for byte, what writing the words found at Off gives.
		var viaWords bytes.Buffer
		wr, err := NewWriter(&viaWords, rep2.Meta)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blocks {
			if err := wr.WriteBlock(blocks[i].Hdr, wordsAt(t, src, &blocks[i])); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out.Bytes(), viaWords.Bytes()) {
			t.Fatal("rewrite by CopyBlock differs from WriteBlock of the words at Off")
		}
	})
}

// wordsAt reads the payload words of a block from a scan that kept none,
// from where its digest says they are.
func wordsAt(t *testing.T, src io.ReaderAt, b *SalvagedBlock) []uint64 {
	t.Helper()
	raw := make([]byte, (blockHdrWords+b.Hdr.NWords)*8)
	if _, err := src.ReadAt(raw, b.Digest.Off); err != nil {
		t.Fatalf("block at offset %d: %v", b.Digest.Off, err)
	}
	if h, err := decodeBlockHeader(raw); err != nil || h.CPU != b.Hdr.CPU || h.Seq != b.Hdr.Seq {
		t.Fatalf("offset %d holds block %+v (%v), scan says %+v", b.Digest.Off, h, err, b.Hdr)
	}
	return bytesToWords(raw[blockHdrWords*8:])
}

// decodeDigested decodes the blocks of a scan that kept neither words nor
// events, from their words in src, and holds each block's digest, anchor,
// offset and decode statistics — taken by a scan worker from a scratch that
// has since moved on — to them.
func decodeDigested(t *testing.T, src io.ReaderAt, blocks []SalvagedBlock) []event.Event {
	t.Helper()
	var all []event.Event
	for i := range blocks {
		b := &blocks[i]
		if b.Events != nil || b.Words != nil {
			t.Fatalf("block %d: the scan kept %d events, %d words", i, len(b.Events), len(b.Words))
		}
		words := wordsAt(t, src, b)
		want, evs, st := wholeDigest(b.Hdr.CPU, words)
		want.Off = b.Digest.Off
		if *b.Digest != want {
			t.Fatalf("block %d: scan digest %+v, its words digest to %+v", i, *b.Digest, want)
		}
		if b.st != st {
			t.Fatalf("block %d: scan decode stats %+v, its words decode with %+v", i, b.st, st)
		}
		all = append(all, evs...)
	}
	return all
}

// wholeDigest is the digest oracle: the block decoded whole, its events
// summarised in one pass over the slice — the digest as it was taken before
// a scan held only a chunk of a block's events. It returns the events and
// the decode statistics besides.
func wholeDigest(cpu int, words []uint64) (d BlockDigest, evs []event.Event, st core.DecodeStats) {
	evs, st = core.DecodeInto(nil, cpu, words)
	bs := &d.Sum
	bs.Events = uint32(len(evs))
	for i := range evs {
		e := &evs[i]
		if i == 0 {
			d.FirstTime = e.Time
		}
		if i == 0 || e.Time < bs.MinTime {
			bs.MinTime = e.Time
		}
		if e.Time > bs.MaxTime {
			bs.MaxTime = e.Time
		}
		bs.MajorMask |= e.Major().Bit()
		bs.MinorBloom.Add(MinorKey(e.Major(), e.Minor()))
		if e.Major() == event.MajorSched && e.Minor() == ksim.EvSchedSwitch && len(e.Data) >= 2 {
			d.exitPid, d.switched = e.Data[1], true
			bs.PidBloom.Add(d.exitPid)
		}
	}
	return d, evs, st
}

// TestChunkedDigestIsTheWholeDigest: a block digested a chunk at a time is
// the block digested whole, at any chunk size, over every block the corpus's
// traces hold — clean, garbled (its interior garble resynchronised mid-chunk),
// truncated (the clipped tail) and cross-CPU. The decode statistics agree
// too, and so does the scratch form, DigestBlock.
func TestChunkedDigestIsTheWholeDigest(t *testing.T) {
	for _, name := range []string{"clean", "garbled", "truncated", "crosscpu-io"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "corpus", name+".ktr"))
		if err != nil {
			t.Fatal(err)
		}
		blocks, _, err := salvageScan(bytes.NewReader(data), int64(len(data)), 1, keepWords, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sc BlockScratch
		switches, skipped := 0, 0
		for _, chunk := range []int{1, 7, chainChunk} {
			t.Run(fmt.Sprintf("%s/chunk=%d", name, chunk), func(t *testing.T) {
				for i := range blocks {
					b := &blocks[i]
					want, _, wst := wholeDigest(b.Hdr.CPU, b.Words)
					got, st := digestChunks(b.Hdr.CPU, b.Words, make([]event.Event, 0, chunk))
					if got != want || st != wst {
						t.Fatalf("block %d (cpu %d seq %d): chunked digest %+v %+v, whole %+v %+v",
							i, b.Hdr.CPU, b.Hdr.Seq, got, st, want, wst)
					}
					if got, st := DigestBlock(b.Hdr.CPU, b.Words, &sc); got != want || st != wst {
						t.Fatalf("block %d: DigestBlock %+v %+v, whole %+v %+v", i, got, st, want, wst)
					}
					if cap(sc.Events) != chainChunk {
						t.Fatalf("block %d: DigestBlock grew its scratch to %d events", i, cap(sc.Events))
					}
					if chunk == 1 && want.switched {
						switches++
					}
					if chunk == 1 {
						skipped += wst.SkippedWords
					}
				}
			})
		}
		if len(blocks) == 0 || switches == 0 || (name == "garbled") != (skipped > 0) {
			t.Fatalf("%s: %d blocks, %d of them switching, %d garbled words: not the fixture it names",
				name, len(blocks), switches, skipped)
		}
	}
}

// TestFuzzSeedCorpus regenerates (with -updatefuzzseeds) or verifies the
// checked-in seed corpus: a clean capture, a mid-block truncation, and a
// header bit-flip, so the CI fuzz smoke job starts from realistic traces
// rather than random bytes.
func TestFuzzSeedCorpus(t *testing.T) {
	root := filepath.Join("testdata", "fuzz")
	targets := []string{"FuzzReadStream", "FuzzSalvage"}
	if !*updateFuzzSeeds {
		for _, tgt := range targets {
			ents, err := os.ReadDir(filepath.Join(root, tgt))
			if err != nil || len(ents) == 0 {
				t.Fatalf("%s seed corpus missing (run go test -updatefuzzseeds ./internal/stream/): %v",
					tgt, err)
			}
		}
		return
	}
	clean := runCapture(t, 2, 64, 300)
	truncated := clean[:len(clean)-100]
	flipped := append([]byte(nil), clean...)
	flipped[12] ^= 0x04 // damage the version word
	midflip := append([]byte(nil), clean...)
	midflip[len(midflip)/2] ^= 0x80
	seeds := map[string][]byte{
		"capture-clean": clean, "capture-truncated": truncated,
		"capture-header-flip": flipped, "capture-midflip": midflip,
	}
	for _, tgt := range targets {
		dir := filepath.Join(root, tgt)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
