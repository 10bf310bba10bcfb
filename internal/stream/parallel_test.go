package stream

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"k42trace/internal/core"
	"k42trace/internal/event"
)

// sortEvents is the order of a merged trace written the obvious way: one
// global stable sort by time, ties broken by CPU (stable keeps per-CPU
// stream order). The merge paths must reproduce it exactly.
func sortEvents(evs []event.Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].CPU < evs[j].CPU
	})
}

// readAllReference is the pre-parallel ReadAll: decode blocks one at a
// time in file order, concatenate, and globally stable-sort by
// (Time, CPU). The parallel path must reproduce its output exactly.
func readAllReference(t *testing.T, rd *Reader) []event.Event {
	t.Helper()
	var out []event.Event
	for k := 0; k < rd.NumBlocks(); k++ {
		evs, _, err := rd.Events(k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, evs...)
	}
	sortEvents(out)
	return out
}

// garbleAnchor overwrites block k's clock-anchor payload with a timestamp
// far in the future: every event in that block decodes with a huge epoch,
// so its CPU's stream is no longer monotone across blocks.
func garbleAnchor(data []byte, k int) []byte {
	rd, _ := NewReader(bytes.NewReader(data), int64(len(data)))
	garbled := append([]byte(nil), data...)
	putWord(garbled[rd.blockOff(k)+(blockHdrWords+1)*8:], 0, 1<<40)
	return garbled
}

// slotOrder rewrites a capture the way the shm agent hands buffers over
// when its drain lags a full ring of four: sealed buffers leave in slot
// order, so each CPU's sequence numbers arrive 4,1,2,3, 8,5,6,7, ... The
// CPU of every file position is unchanged.
func slotOrder(t *testing.T, data []byte) []byte {
	t.Helper()
	rd := newReader(t, data)
	stride := int(rd.stride)
	perCPU := map[int][][]byte{}
	var cpuAt []int
	for k := 0; k < rd.NumBlocks(); k++ {
		h, _, err := rd.Block(k)
		if err != nil {
			t.Fatal(err)
		}
		off := int(rd.blockOff(k))
		perCPU[h.CPU] = append(perCPU[h.CPU], data[off:off+stride])
		cpuAt = append(cpuAt, h.CPU)
	}
	for _, blocks := range perCPU {
		for i := 1; i+4 <= len(blocks); i += 4 {
			w := blocks[i : i+4]
			w[0], w[1], w[2], w[3] = w[3], w[0], w[1], w[2]
		}
	}
	out := append([]byte(nil), data[:fileHdrWords*8]...)
	for _, c := range cpuAt {
		out = append(out, perCPU[c][0]...)
		perCPU[c] = perCPU[c][1:]
	}
	return out
}

// TestReadAllParallelMatchesSequential is the parity table of the whole-
// file readers. On every trace the strict reader must reproduce the
// global-sort reference at any worker count; the salvager must recover
// the same events with the same decode statistics; and a salvage rewrite
// must read back as exactly the blocks SalvageBlocks hands out.
func TestReadAllParallelMatchesSequential(t *testing.T) {
	clean := runCapture(t, 4, 64, 3000)
	for _, row := range []struct {
		name string
		data []byte
	}{
		{"clean", clean},
		{"garbled-anchor", garbleAnchor(clean, 1)},
		{"out-of-sequence", slotOrder(t, clean)},
	} {
		t.Run(row.name, func(t *testing.T) {
			rd := newReader(t, row.data)
			if rd.NumBlocks() < 8 {
				t.Fatalf("want a multi-block trace, got %d blocks", rd.NumBlocks())
			}
			want := readAllReference(t, rd)
			var wantSt core.DecodeStats
			for _, workers := range []int{1, 2, 8} {
				got, st, err := rd.ReadAllParallel(workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: event stream differs from sequential reference", workers)
				}
				if st.Events != len(want) {
					t.Errorf("workers=%d: stats count %d events, stream has %d", workers, st.Events, len(want))
				}
				wantSt = st
			}

			src, size := bytes.NewReader(row.data), int64(len(row.data))
			got, rep, err := Salvage(src, size, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("salvaged events differ from the strict read")
			}
			if rep.Stats != wantSt {
				t.Errorf("salvage decode stats %+v, strict read %+v", rep.Stats, wantSt)
			}

			blocks, _, err := SalvageBlocks(src, size, 8, nil)
			if err != nil {
				t.Fatal(err)
			}
			// SalvageBlocks keeps a digest, no words and no events: the row
			// decodes the words where the digests say they are.
			concat := decodeDigested(t, src, blocks)
			sortEvents(concat)
			var out bytes.Buffer
			if _, err := SalvageTo(src, size, &out, 8); err != nil {
				t.Fatal(err)
			}
			reread, _, err := newReader(t, out.Bytes()).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reread, concat) {
				t.Error("salvage rewrite does not read back as the SalvageBlocks events")
			}
		})
	}
}

// TestReadAllParallelGarbledBlock garbles one block's payload so its CPU
// stream loses timestamp monotonicity, forcing the per-CPU sort fallback;
// the parallel result must still match the global-sort reference.
func TestReadAllParallelGarbledBlock(t *testing.T) {
	data := runCapture(t, 2, 64, 3000)
	rd := newReader(t, data)
	if rd.NumBlocks() < 6 {
		t.Fatalf("want a multi-block trace, got %d blocks", rd.NumBlocks())
	}
	grd := newReader(t, garbleAnchor(data, 1))
	want := readAllReference(t, grd)
	// Confirm the garble actually broke per-CPU monotonicity in raw block
	// order (the condition that forces the parallel path's sort fallback).
	mono := true
	perCPU := map[int]uint64{}
	for k := 0; k < grd.NumBlocks(); k++ {
		evs, _, err := grd.Events(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			if e.Time < perCPU[e.CPU] {
				mono = false
			}
			perCPU[e.CPU] = e.Time
		}
	}
	if mono {
		t.Fatal("garbling did not break per-CPU monotonicity; test is vacuous")
	}
	for _, workers := range []int{1, 2, 8} {
		got, _, err := grd.ReadAllParallel(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: garbled-trace stream differs from sequential reference", workers)
		}
	}
}

func TestMergeByTimeMatchesGlobalSort(t *testing.T) {
	// Deterministic pseudo-random per-CPU monotone streams with plenty of
	// timestamp collisions across streams.
	seed := uint64(12345)
	rng := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	var streams [][]event.Event
	var all []event.Event
	for cpu := 0; cpu < 5; cpu++ {
		var s []event.Event
		ts := uint64(0)
		for i := 0; i < 200; i++ {
			ts += rng() % 3 // repeats within and across streams
			e := event.Event{Time: ts, CPU: cpu, Data: []uint64{rng()}}
			s = append(s, e)
		}
		streams = append(streams, s)
		all = append(all, s...)
	}
	streams = append(streams, nil) // empty stream must be harmless
	sortEvents(all)
	got := MergeByTime(streams...)
	if !reflect.DeepEqual(got, all) {
		t.Fatal("k-way merge differs from global stable sort")
	}
	if MergeByTime(nil, []event.Event{}) != nil {
		t.Error("merging empty streams should return nil")
	}
}

func TestReadBlockIntoNoAllocs(t *testing.T) {
	data := runCapture(t, 2, 64, 1000)
	rd := newReader(t, data)
	var bb BlockBuf
	if _, _, err := rd.ReadBlockInto(0, &bb); err != nil {
		t.Fatal(err) // warm-up sizes the buffers
	}
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := rd.ReadBlockInto(k%rd.NumBlocks(), &bb); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if allocs != 0 {
		t.Errorf("ReadBlockInto allocates %.1f objects per warm call, want 0", allocs)
	}
}

func TestHeaderIntoNoAllocs(t *testing.T) {
	data := runCapture(t, 2, 64, 1000)
	rd := newReader(t, data)
	scratch := make([]byte, blockHdrWords*8)
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := rd.readBlock(k%rd.NumBlocks(), scratch); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if allocs != 0 {
		t.Errorf("a header read allocates %.1f objects per call, want 0", allocs)
	}
}

func TestBlockBufReuseSafeAfterDecode(t *testing.T) {
	// DecodeBuffer must copy payloads out: decoding block 0, then reusing
	// the same BlockBuf for block 1, must not corrupt block 0's events.
	data := runCapture(t, 2, 64, 1500)
	rd := newReader(t, data)
	e0a, _, err := rd.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	var bb BlockBuf
	h, words, err := rd.ReadBlockInto(0, &bb)
	if err != nil {
		t.Fatal(err)
	}
	e0b, _ := core.DecodeBuffer(h.CPU, words)
	if _, _, err := rd.ReadBlockInto(1, &bb); err != nil {
		t.Fatal(err) // clobber bb's words with block 1
	}
	if !reflect.DeepEqual(e0a, e0b) {
		t.Fatal("events decoded via reused BlockBuf were corrupted by the next read")
	}
}
