package stream

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"k42trace/internal/core"
	"k42trace/internal/event"
)

// zeroAnchor destroys the leading clock anchor (first 16 payload bytes) of
// file block k, leaving the block header intact — the shape a torn write
// or zeroed span leaves behind.
func zeroAnchor(t *testing.T, data []byte, bufWords, k int) {
	t.Helper()
	stride := int(blockStride(bufWords))
	off := fileHdrWords*8 + k*stride + blockHdrWords*8
	for i := 0; i < 16; i++ {
		data[off+i] = 0
	}
}

// checkWindow holds EventsBetween to its ground truth over one window: the
// full decoded merge, filtered by time.
func checkWindow(t *testing.T, rd *Reader, fi *FullIndex, from, to uint64) {
	t.Helper()
	got, err := rd.EventsBetween(fi, from, to)
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var want []event.Event
	for _, e := range all {
		if e.Time >= from && e.Time < to {
			want = append(want, e)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EventsBetween(%d, %d) = %d events, full decode has %d", from, to, len(got), len(want))
	}
}

// cpuBlocks lists each CPU's blocks, in file order.
func cpuBlocks(fi *FullIndex) [][]int {
	out := make([][]int, fi.Meta.CPUs)
	for k := range fi.Blocks {
		cpu := fi.Blocks[k].CPU
		out[cpu] = append(out[cpu], k)
	}
	return out
}

// TestEventsBetweenGarbledAnchor: a block whose leading clock anchor was
// destroyed is picked by the exact time bounds of what it still decodes
// to, not by the anchor it lost, so windows that straddle the damaged
// blocks return exactly the events the full decode sees.
func TestEventsBetweenGarbledAnchor(t *testing.T) {
	const bufWords = 64
	data := runCapture(t, 2, bufWords, 600)
	clean := buildFull(t, newReader(t, data), 2)
	blocks := cpuBlocks(clean)
	if len(blocks[0]) < 3 || len(blocks[1]) < 3 {
		t.Fatalf("need >= 3 blocks per CPU, got %d/%d", len(blocks[0]), len(blocks[1]))
	}

	// Destroy an interior anchor on each CPU's stream.
	for cpu := range blocks {
		zeroAnchor(t, data, bufWords, blocks[cpu][1])
	}
	rd := newReader(t, data)
	fi := buildFull(t, rd, 2)
	for cpu := range blocks {
		if k := blocks[cpu][1]; fi.Blocks[k] == clean.Blocks[k] {
			t.Fatalf("cpu %d: zeroing block %d's anchor left its summary as it was", cpu, k)
		}
	}

	lo := clean.Blocks[blocks[0][1]].MinTime
	hi := clean.Blocks[blocks[0][2]].MinTime + 5
	for _, win := range [][2]uint64{{0, ^uint64(0)}, {lo, hi}, {lo + 1, hi}, {lo + 3, lo + 4}, {hi, ^uint64(0)}} {
		checkWindow(t, rd, fi, win[0], win[1])
	}
}

// TestEventsBetweenAllZeroBlock: an all-zero payload under an intact
// header (a zero anchor and a zero header stamp mid-stream) decodes to no
// events; its summary says so, and a whole-range read passes over it.
func TestEventsBetweenAllZeroBlock(t *testing.T) {
	const bufWords = 64
	data := runCapture(t, 1, bufWords, 400)
	if n := len(buildFull(t, newReader(t, data), 1).Blocks); n < 4 {
		t.Fatalf("need >= 4 blocks, got %d", n)
	}
	const k = 2
	stride := int(blockStride(bufWords))
	off := fileHdrWords*8 + k*stride + blockHdrWords*8
	for i := 0; i < bufWords*8; i++ {
		data[off+i] = 0
	}
	rd := newReader(t, data)
	fi := buildFull(t, rd, 1)
	if bs := fi.Blocks[k]; bs.Events != 0 || bs.Overlaps(0, ^uint64(0)) {
		t.Errorf("all-zero block summary = %+v, want no events", bs)
	}
	checkWindow(t, rd, fi, 0, ^uint64(0))
}

// plateauClock is a deterministic clock where several consecutive reads
// share one tick, so events logged on different CPUs carry the same
// timestamp — the tie-order corpus.
type plateauClock struct {
	mu    sync.Mutex
	calls int
	per   int // reads per tick
	t     uint64
}

func (c *plateauClock) Now(cpu int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls%c.per == 0 {
		c.t++
	}
	return c.t
}

func (c *plateauClock) Hz() uint64 { return 1e9 }

// TestEventsBetweenMatchesMergeTieOrder asserts tie-order parity between
// the two read paths: Reader.EventsBetween (the window's blocks as runs
// under MergeByTime) and ReadAll (per-CPU chains under MergeFrom with the
// same tie-break). Same-timestamp events on multiple CPUs must come back in
// the identical order from both.
func TestEventsBetweenMatchesMergeTieOrder(t *testing.T) {
	tr := core.MustNew(core.Config{
		CPUs: 4, BufWords: 64, NumBufs: 4,
		Mode: core.Stream, Clock: &plateauClock{per: 7},
	})
	tr.EnableAll()
	var buf bytes.Buffer
	wait := CaptureAsync(tr, &buf)
	for i := 0; i < 800; i++ {
		// Round-robin so each timestamp plateau spans several CPUs.
		tr.CPU(i%4).Log2(event.MajorTest, 9, uint64(i), uint64(i%4))
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}

	rd := newReader(t, buf.Bytes())
	all, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// The corpus must actually contain cross-CPU timestamp ties.
	ties := 0
	for i := 1; i < len(all); i++ {
		if all[i].Time == all[i-1].Time && all[i].CPU != all[i-1].CPU {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("corpus has no cross-CPU timestamp ties; tie-order not exercised")
	}

	fi := buildFull(t, rd, 2)
	got, err := rd.EventsBetween(fi, 0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, all) {
		for i := range got {
			if i >= len(all) || !reflect.DeepEqual(got[i], all[i]) {
				t.Fatalf("order diverges at event %d: EventsBetween %+v, ReadAll %+v",
					i, got[i], all[i])
			}
		}
		t.Fatalf("EventsBetween returned %d events, ReadAll %d", len(got), len(all))
	}

	// A sub-range must agree with the filtered merge, too.
	mid := all[len(all)/2].Time
	checkWindow(t, rd, fi, mid-2, mid+2)
}
