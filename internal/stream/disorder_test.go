package stream_test

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"testing"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/faultinject"
	"k42trace/internal/stream"
)

// sortedDecodes is what a whole-file read of these blocks must return,
// written the obvious way: each block decoded on its own (core.DecodeInto),
// the decodes concatenated in the order given, one stable sort by
// (Time, CPU). stepsBack counts where, in the concatenation, a CPU's time
// decreases.
func sortedDecodes(t *testing.T, rd *stream.Reader, order []int) (want []event.Event, stepsBack int) {
	t.Helper()
	for _, k := range order {
		h, words, err := rd.Block(k)
		if err != nil {
			t.Fatal(err)
		}
		want, _ = core.DecodeInto(want, h.CPU, words)
	}
	last := map[int]uint64{}
	for i := range want {
		if want[i].Time < last[want[i].CPU] {
			stepsBack++
		}
		last[want[i].CPU] = want[i].Time
	}
	slices.SortStableFunc(want, func(a, b event.Event) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.CPU, b.CPU)
	})
	return want, stepsBack
}

// TestDisorderedFileReadsAsTheStableSort holds the whole-file reads to
// their contract where no index promises them an ordered chain: a block
// whose anchor is garbled puts its CPU's events far ahead of the blocks
// that follow, and blocks delivered out of sequence or twice reach the
// strict reader as they lie. The events are decoded under the merge, which
// has to notice a chain stepping back by itself; the answer is still the
// stable (Time, CPU) sort of the blocks' own decodes — in file order for the
// strict reader, per CPU in sequence order without the duplicates for the
// salvager — at any worker count.
func TestDisorderedFileReadsAsTheStableSort(t *testing.T) {
	tr := core.MustNew(core.Config{CPUs: 4, BufWords: 64, NumBufs: 4,
		Mode: core.Stream, Clock: clock.NewManual(1)})
	tr.EnableAll()
	var buf bytes.Buffer
	wait := stream.CaptureAsync(tr, &buf)
	for i := 0; i < 4000; i++ {
		c := tr.CPU(i % 4)
		switch i % 3 {
		case 0:
			c.Log1(event.MajorTest, 1, uint64(i))
		case 1:
			c.Log2(event.MajorTest, 2, uint64(i), uint64(i)*2)
		default:
			c.Log4(event.MajorTest, 4, uint64(i), 1, 2, 3)
		}
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 3; seed++ {
		im, err := faultinject.OpenImage(buf.Bytes(), seed)
		if err != nil {
			t.Fatal(err)
		}
		n := im.NumBlocks()
		if n < 64 {
			t.Fatalf("want a trace of many blocks, got %d", n)
		}
		clean, err := stream.NewReader(bytes.NewReader(im.Bytes()), int64(len(im.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		// Two blocks of one CPU, some way apart, to deliver out of sequence.
		a := n/4 + int(seed)
		ha, _, err := clean.Block(a)
		if err != nil {
			t.Fatal(err)
		}
		b := a + 8
		for ; b < n; b++ {
			if hb, _, err := clean.Block(b); err != nil {
				t.Fatal(err)
			} else if hb.CPU == ha.CPU {
				break
			}
		}
		if b == n {
			t.Fatalf("no second block of CPU %d after block %d", ha.CPU, a)
		}
		im.GarbleAnchor(n / 2)
		im.SwapBlocks(a, b)
		im.DuplicateBlock(n / 3)
		data := im.Bytes()
		rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("%v: %v", im.Log(), err)
		}

		fileOrder := make([]int, rd.NumBlocks())
		for k := range fileOrder {
			fileOrder[k] = k
		}
		want, stepsBack := sortedDecodes(t, rd, fileOrder)
		if stepsBack < 3 {
			t.Fatalf("%v: the damaged file steps back %d times in file order: the fixture exercises nothing", im.Log(), stepsBack)
		}
		for _, workers := range []int{1, 4} {
			got, st, err := rd.ReadAllParallel(workers)
			if err != nil {
				t.Fatalf("%v: workers=%d: %v", im.Log(), workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: workers=%d: strict read of %d events differs from the stable sort of its blocks' decodes", im.Log(), workers, len(got))
			}
			if st.Events != len(want) || st.Garbled() {
				t.Errorf("%v: workers=%d: decode stats %+v for %d events", im.Log(), workers, st, len(want))
			}
		}

		// The salvager's chains: per CPU by sequence number, the first
		// delivery of a duplicate.
		type at struct {
			k int
			h stream.BlockHeader
		}
		var blocks []at
		for k := 0; k < rd.NumBlocks(); k++ {
			h, _, err := rd.Block(k)
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, at{k, h})
		}
		slices.SortStableFunc(blocks, func(x, y at) int {
			if c := cmp.Compare(x.h.CPU, y.h.CPU); c != 0 {
				return c
			}
			return cmp.Compare(x.h.Seq, y.h.Seq)
		})
		var seqOrder []int
		for i, b := range blocks {
			if i == 0 || b.h.CPU != blocks[i-1].h.CPU || b.h.Seq != blocks[i-1].h.Seq {
				seqOrder = append(seqOrder, b.k)
			}
		}
		want, stepsBack = sortedDecodes(t, rd, seqOrder)
		if stepsBack == 0 || len(seqOrder) != n {
			t.Fatalf("%v: %d blocks in sequence order step back %d times", im.Log(), len(seqOrder), stepsBack)
		}
		for _, workers := range []int{1, 4} {
			got, rep, err := stream.Salvage(bytes.NewReader(data), int64(len(data)), workers)
			if err != nil {
				t.Fatalf("%v: workers=%d: %v", im.Log(), workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: workers=%d: salvage of %d events differs from the stable sort of its blocks' decodes", im.Log(), workers, len(got))
			}
			if rep.DupBlocks != 1 || rep.Reordered == 0 || rep.BlocksGood != n ||
				rep.EventsRecovered != len(want) || rep.Stats.Events != len(want) {
				t.Errorf("%v: workers=%d: report\n%v", im.Log(), workers, rep)
			}
		}
	}
}
