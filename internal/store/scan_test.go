package store

import (
	"bytes"
	"testing"
	"unsafe"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/stream"
)

// denseSpill logs MajorTest events of 1+payload words into 1024-word
// buffers until `blocks` of them have sealed, so that two spills of equal
// block count differ only in how many events each block holds.
func denseSpill(t *testing.T, payload, blocks int) []byte {
	t.Helper()
	tr := core.MustNew(core.Config{CPUs: 1, BufWords: 1024, NumBufs: 4,
		Mode: core.Stream, Clock: clock.NewManual(1)})
	tr.EnableAll()
	var buf bytes.Buffer
	wait := stream.CaptureAsync(tr, &buf)
	data := make([]uint64, payload)
	for tr.Stats().Seals < uint64(blocks) {
		tr.CPU(0).LogWords(event.MajorTest, 1, data)
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScanAllocsIndependentOfBlockDensity is the tier-1 pin on the scan
// path: decoding a block into the worker's scratch costs nothing per
// event, so a scan that matches nothing allocates the same few objects
// (the block buffer and the scratch) whether a block holds 64 events or
// a thousand.
func TestScanAllocsIndependentOfBlockDensity(t *testing.T) {
	allocs := func(payload int) (perScan float64, events uint64) {
		s := openStore(t, Options{})
		res := ingestBytes(t, s, "t", denseSpill(t, payload, 12))
		if len(res.Segments) != 1 || res.Blocks < 12 {
			t.Fatalf("spill became %d segments, %d blocks", len(res.Segments), res.Blocks)
		}
		sg := s.getTenant("t").segs[res.Segments[0].ID]
		// NoPrune, or the index would skip every block undecoded.
		p := Params{Tenant: "t", HasMajor: true, Major: event.MajorNet, NoPrune: true}
		perScan = testing.AllocsPerRun(20, func() {
			var sc stream.BlockScratch
			evs, scanned, _, err := scanSegment(sg, p, 1, &sc)
			if err != nil || len(evs) != 0 || scanned != res.Blocks {
				t.Fatalf("scan matched %d events in %d blocks: %v", len(evs), scanned, err)
			}
		})
		return perScan, res.Events
	}
	sparse, few := allocs(15)
	dense, many := allocs(0)
	if many < 8*few {
		t.Fatalf("fixtures hold %d and %d events: not a density contrast", few, many)
	}
	if sparse != dense || dense > 4 {
		t.Errorf("a non-matching scan of 12 blocks allocates %.0f objects at %d events, %.0f at %d; want the same, at most 4",
			sparse, few, dense, many)
	}
}

// TestCachedAnswersRetainWhatTheyCharge: a cache entry is charged
// eventsSize, so that is all it may keep alive. Its event slice must be
// exactly as long as the answer, and its payloads must sit back to back in
// slabs of their own, at most one per block of the segment. Payloads that
// aliased a decoded block would be a header word apart, and would pin the
// whole block for as long as the entry lived.
func TestCachedAnswersRetainWhatTheyCharge(t *testing.T) {
	data := sdetSpill(t, 42)
	base, _ := readAllEvents(t, data)
	lo, hi := base[0].Time, base[len(base)-1].Time
	s := openStore(t, Options{SegmentSpan: (hi - lo) / 3, Workers: 2, CacheBytes: 64 << 20})
	ingestBytes(t, s, "acme", data)
	for _, p := range paramMatrix("acme", base) {
		if _, err := s.Query(p); err != nil {
			t.Fatal(err)
		}
	}

	tn := s.getTenant("acme")
	entries, narrow := 0, 0
	for el := s.cache.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		entries++
		if cap(e.evs) != len(e.evs) {
			t.Errorf("entry %v holds %d events in a slice of %d", e.key.fp, len(e.evs), cap(e.evs))
		}
		// Walk the payloads in order: each either continues the slab of
		// the one before it or starts the next slab.
		var slabs, retained int64
		var end uintptr
		for i := range e.evs {
			d := e.evs[i].Data
			if len(d) == 0 {
				continue
			}
			if len(d) != cap(d) {
				t.Fatalf("entry %v event %d: payload len %d cap %d", e.key.fp, i, len(d), cap(d))
			}
			if at := uintptr(unsafe.Pointer(&d[0])); at != end {
				slabs++
			}
			end = uintptr(unsafe.Pointer(&d[len(d)-1])) + 8
			retained += 8 * int64(len(d))
		}
		retained += int64(cap(e.evs)) * int64(unsafe.Sizeof(event.Event{}))
		blocks := int64(tn.segs[e.key.seg.id].info.Blocks)
		if slabs > blocks {
			t.Errorf("entry %v: payloads of %d events lie in %d runs, segment has %d blocks: they are not packed",
				e.key.fp, len(e.evs), slabs, blocks)
		}
		if retained > e.size || e.size != eventsSize(e.evs) {
			t.Errorf("entry %v retains %d bytes, charged %d (eventsSize %d)", e.key.fp, retained, e.size, eventsSize(e.evs))
		}
		if n := int64(len(e.evs)); n > 0 && n < int64(tn.segs[e.key.seg.id].info.Events)/20 {
			narrow++
		}
	}
	if entries == 0 || narrow == 0 {
		t.Fatalf("%d cache entries, %d of them narrow: the matrix exercised nothing", entries, narrow)
	}
}
