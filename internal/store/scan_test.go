package store

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"unsafe"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/ksim"
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
			runs, _, scanned, _, err := scanSegment(sg, p, 1, &sc, nil)
			if err != nil || len(runs) != 0 || scanned != res.Blocks {
				t.Fatalf("scan matched in %d of %d blocks: %v", len(runs), scanned, err)
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
// eventsSize, so that is all it may keep alive. It holds one run per block
// that matched; each run's event slice must be exactly as long as its
// matches, and its payloads must sit back to back in one slab of their own.
// Payloads that aliased a decoded block would be a header word apart, and
// would pin the whole block for as long as the entry lived.
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
		if blocks := tn.segs[e.key.seg.id].info.Blocks; len(e.runs) > blocks {
			t.Errorf("entry %v holds %d runs, segment has %d blocks", e.key.fp, len(e.runs), blocks)
		}
		var events, retained int64
		for r, evs := range e.runs {
			if len(evs) == 0 || cap(evs) != len(evs) {
				t.Errorf("entry %v run %d holds %d events in a slice of %d", e.key.fp, r, len(evs), cap(evs))
			}
			// Walk the payloads in order: each continues the run's slab.
			slabs := 0
			var end uintptr
			for i := range evs {
				d := evs[i].Data
				if len(d) == 0 {
					continue
				}
				if len(d) != cap(d) {
					t.Fatalf("entry %v run %d event %d: payload len %d cap %d", e.key.fp, r, i, len(d), cap(d))
				}
				if at := uintptr(unsafe.Pointer(&d[0])); at != end {
					slabs++
				}
				end = uintptr(unsafe.Pointer(&d[len(d)-1])) + 8
				retained += 8 * int64(len(d))
			}
			if slabs > 1 {
				t.Errorf("entry %v run %d: payloads of %d events lie in %d slabs: they are not packed",
					e.key.fp, r, len(evs), slabs)
			}
			events += int64(len(evs))
			retained += int64(cap(evs))*int64(unsafe.Sizeof(event.Event{})) + int64(unsafe.Sizeof(evs))
		}
		if retained > e.size || e.size != eventsSize(e.runs) {
			t.Errorf("entry %v retains %d bytes, charged %d (eventsSize %d)", e.key.fp, retained, e.size, eventsSize(e.runs))
		}
		if events > 0 && events < int64(tn.segs[e.key.seg.id].info.Events)/20 {
			narrow++
		}
	}
	if entries == 0 || narrow == 0 {
		t.Fatalf("%d cache entries, %d of them narrow: the matrix exercised nothing", entries, narrow)
	}
}

// payloadBytes is what the payloads of evs occupy.
func payloadBytes(evs []event.Event) (n uint64) {
	for i := range evs {
		n += 8 * uint64(len(evs[i].Data))
	}
	return n
}

// TestSecondQueryAllocatesOnlyItsAnswer: scan scratch outlives the query
// that grew it. With the cache off, a narrow query repeated on a warm store
// allocates its answer — each block's matches cloned out, and the merged
// slice — and no block buffer or decode scratch, either of which is several
// times the size of such an answer.
func TestSecondQueryAllocatesOnlyItsAnswer(t *testing.T) {
	data := sdetSpill(t, 42)
	base, meta := readAllEvents(t, data)
	lo, hi := base[0].Time, base[len(base)-1].Time
	// One worker: which scratch a second worker would pick up is the
	// scheduler's choice.
	s := openStore(t, Options{SegmentSpan: (hi - lo) / 3, Workers: 1})
	ingestBytes(t, s, "acme", data)
	for _, p := range []Params{
		{Tenant: "acme", From: lo + (hi-lo)/2, To: lo + (hi-lo)/2 + (hi-lo)/16, HasMajor: true, Major: event.MajorSched},
		{Tenant: "acme", From: lo + (hi-lo)/8, To: lo + (hi-lo)/8 + (hi-lo)/16, HasMajor: true, Major: event.MajorLock, Limit: 100},
		{Tenant: "acme", From: lo + (hi-lo)/8, To: lo + (hi-lo)/8 + (hi-lo)/128},
	} {
		first, err := s.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.Query(p)
		runtime.ReadMemStats(&after)
		if err != nil || len(res.Events) == 0 || !sameEvents(res.Events, first.Events) {
			t.Fatalf("%v: repeat gave %d events, first %d: %v", p.values(), len(res.Events), len(first.Events), err)
		}
		// The clones and the merged slice hold every match, a page holds
		// the first Limit of them; 9/8 is the allocator's size-class
		// rounding at its worst.
		got := after.TotalAlloc - before.TotalAlloc
		all := p
		all.Limit = 0
		matches := MatchStream(base, all)
		answer := 2*uint64(len(matches))*uint64(unsafe.Sizeof(event.Event{})) + payloadBytes(matches)
		if got > answer*9/8+4<<10 {
			t.Errorf("%v: repeat query allocates %d bytes for an answer of %d (%d events, %d blocks scanned); want at most 1/8 and 4 KiB over",
				p.values(), got, answer, len(matches), res.BlocksScanned)
		}
		if stride := uint64(8 * meta.BufWords); answer > stride {
			t.Errorf("%v: an answer of %d bytes is not narrow next to a block's %d, which a scratch holds twice", p.values(), answer, stride)
		}
	}
}

// TestCachedRunsAreNotTheCallers: a Result's events are the query's own
// copies and their payloads are capped at their length, so whatever a
// caller does to them — overwrite the events, append to a payload — the
// cached runs the next query is answered from are as they were.
func TestCachedRunsAreNotTheCallers(t *testing.T) {
	data := sdetSpill(t, 42)
	base, _ := readAllEvents(t, data)
	s := openStore(t, Options{SegmentSpan: (base[len(base)-1].Time - base[0].Time) / 3, CacheBytes: 64 << 20})
	ingestBytes(t, s, "acme", data)
	p := Params{Tenant: "acme"}
	res, err := s.Query(p)
	if err != nil || !sameEvents(res.Events, base) {
		t.Fatalf("cold query differs from the upload: %v", err)
	}
	for i := range res.Events {
		e := &res.Events[i]
		if i%2 == 0 {
			e.Data = append(e.Data, 0xdead, 0xbeef) // must not land in the neighbour's payload
		} else {
			*e = event.Event{CPU: -1}
		}
	}
	again, err := s.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	if again.SegsCached != again.SegsScanned || again.SegsCached == 0 {
		t.Fatalf("repeat query served %d of %d segments from the cache", again.SegsCached, again.SegsScanned)
	}
	if !sameEvents(again.Events, base) {
		t.Fatal("the cache saw what a caller did to its Result")
	}
}

// TestWholeRangeQueryAllocatesItsAnswerOnce: with nobody to keep its runs
// (cache off), a query whose blocks the index proves to match whole builds
// its answer once — each block decoded under the merge into scratch off the
// free list, the structs copied from there into Result.Events, the payloads
// into one slab a block — where cloning every block as a run first made it
// twice. One worker, so that which scratch a chain picks up off the free
// list is not the scheduler's choice.
func TestWholeRangeQueryAllocatesItsAnswerOnce(t *testing.T) {
	once := func(t *testing.T, s *Store, p Params, base []event.Event, wantBlocks int) {
		t.Helper()
		want := MatchStream(base, p)
		if _, err := s.Query(p); err != nil { // warms the free list
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.Query(p)
		runtime.ReadMemStats(&after)
		if err != nil || len(want) == 0 || !sameEvents(res.Events, want) {
			t.Fatalf("%v: %d events, oracle %d: %v", p.values(), len(res.Events), len(want), err)
		}
		if wantBlocks > 0 && res.BlocksScanned != wantBlocks {
			t.Fatalf("%v: scanned %d blocks, the range was cut to cover %d", p.values(), res.BlocksScanned, wantBlocks)
		}
		got := after.TotalAlloc - before.TotalAlloc
		answer := uint64(len(want))*uint64(unsafe.Sizeof(event.Event{})) + payloadBytes(want)
		if got > answer*9/8+4<<10 {
			t.Errorf("%v: query allocates %d bytes for an answer of %d (%d events, %d blocks): %.2f times; want at most 1/8 and 4 KiB over",
				p.values(), got, answer, len(want), res.BlocksScanned, float64(got)/float64(answer))
		}
	}

	t.Run("whole range", func(t *testing.T) {
		data := sdetSpill(t, 42)
		base, _ := readAllEvents(t, data)
		s := openStore(t, Options{SegmentSpan: (base[len(base)-1].Time - base[0].Time) / 3, Workers: 1})
		ingestBytes(t, s, "acme", data)
		once(t, s, Params{Tenant: "acme"}, base, 0)
		once(t, s, Params{Tenant: "acme", Agg: "overview"}, base, 0)
	})
	t.Run("whole blocks", func(t *testing.T) {
		data := denseSpill(t, 3, 12)
		base, _ := readAllEvents(t, data)
		s := openStore(t, Options{Workers: 1})
		res := ingestBytes(t, s, "t", data)
		_, fi, err := s.getTenant("t").segs[res.Segments[0].ID].open(1)
		if err != nil {
			t.Fatal(err)
		}
		// From the first event of block 2 to the last of block 9: on one CPU
		// the range then holds those blocks and cuts none.
		first, last := &fi.Blocks[2], &fi.Blocks[9]
		if fi.Blocks[1].MaxTime >= first.MinTime || last.MaxTime >= fi.Blocks[10].MinTime {
			t.Fatalf("blocks share a stamp with their neighbours: %d %d, %d %d",
				fi.Blocks[1].MaxTime, first.MinTime, last.MaxTime, fi.Blocks[10].MinTime)
		}
		once(t, s, Params{Tenant: "t", From: first.MinTime, To: last.MaxTime + 1}, base, 8)
	})
}

// TestPulledChainHoldsOneScratch: a chain decodes each pulled block inside
// the merge's Next, into the one scratch it takes off the free list,
// whatever the store's Workers. So a store's first query after an ingest
// allocates the same at Workers 1 and 4: a second scratch a chain, grown to
// the largest block, would show as that block's events × 48 B, far above
// the 4 KiB allowed.
func TestPulledChainHoldsOneScratch(t *testing.T) {
	data := denseSpill(t, 0, 12)
	first := func(workers int) (alloc uint64, need int) {
		s := openStore(t, Options{Workers: workers})
		res := ingestBytes(t, s, "t", data)
		if len(res.Segments) != 1 {
			t.Fatalf("spill became %d segments", len(res.Segments))
		}
		_, fi, err := s.getTenant("t").segs[res.Segments[0].ID].open(workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range fi.Blocks {
			need = max(need, int(bs.Events))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q, err := s.Query(Params{Tenant: "t", Agg: "overview"})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(q.Events)) != res.Events {
			t.Fatalf("j%d: %d of %d events", workers, len(q.Events), res.Events)
		}
		return after.TotalAlloc - before.TotalAlloc, need
	}
	one, need := first(1)
	four, _ := first(4)
	if slab := need * int(unsafe.Sizeof(event.Event{})); slab <= 16<<10 {
		t.Fatalf("the largest block's scratch is %d bytes, too small to tell", slab)
	}
	if d := int64(four) - int64(one); d > 4<<10 || d < -4<<10 {
		t.Errorf("the first query allocates %d bytes at Workers 4 and %d at Workers 1; want the same ± 4 KiB", four, one)
	}
}

// namedSpill logs the same round of activity `rounds` times on each of two
// CPUs — switches among three processes, a system call, a contended lock, a
// PC and a hardware-counter sample — after the one set of definitions that
// names them all, so that two spills of different round counts differ in
// events and not in names.
func namedSpill(t *testing.T, rounds int) []byte {
	t.Helper()
	tr := core.MustNew(core.Config{CPUs: 2, BufWords: 1024, NumBufs: 4,
		Mode: core.Stream, Clock: clock.NewManual(1)})
	tr.EnableAll()
	var buf bytes.Buffer
	wait := stream.CaptureAsync(tr, &buf)
	// str packs a string of at most seven bytes as its one payload word.
	str := func(s string) (w uint64) {
		for i := range len(s) {
			w |= uint64(s[i]) << (8 * i)
		}
		return w
	}
	c0 := tr.CPU(0)
	c0.Log2(event.MajorSample, ksim.EvSymDef, 10, str("open"))
	c0.Log2(event.MajorSample, ksim.EvSymDef, 11, str("read"))
	c0.Log2(event.MajorSample, ksim.EvChainDef, 5, str("a < b"))
	for pid := uint64(2); pid <= 4; pid++ {
		c0.Log3(event.MajorUser, ksim.EvUserRunULoader, 1, pid, str(fmt.Sprint("sh", pid)))
	}
	for r := 0; r < rounds; r++ {
		for c := 0; c < 2; c++ {
			cpu, pid := tr.CPU(c), uint64(2+(r+c)%3)
			cpu.Log3(event.MajorSched, ksim.EvSchedSwitch, 2+uint64(r+c+2)%3, pid, 100+pid)
			cpu.Log2(event.MajorSyscall, ksim.EvSyscallEnter, pid, ksim.SysRead)
			cpu.Log2(event.MajorSample, ksim.EvSamplePC, 10+uint64(r%2), pid)
			cpu.Log2(event.MajorSyscall, ksim.EvSyscallExit, pid, ksim.SysRead)
			cpu.Log2(event.MajorLock, ksim.EvLockStartWait, 0xa, 5)
			cpu.Log4(event.MajorLock, ksim.EvLockAcquired, 0xa, 30, 2, 5)
			cpu.Log2(event.MajorLock, ksim.EvLockRelease, 0xa, 40)
			cpu.LogWords(event.MajorMem, ksim.EvMemHWC, []uint64{11, 1000, 800, 3, 1})
		}
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmAggregationMakesNoPerEventView: a warm aggregation's merge pulls
// nothing, so Format walks each CPU's runs where the merge left them and
// views no positions of the answer. What it allocates is the naming context
// and the reports, counted in names and rows, not in events.
func TestWarmAggregationMakesNoPerEventView(t *testing.T) {
	allocs := func(rounds int) (perAgg map[string]uint64, events int) {
		s := openStore(t, Options{CacheBytes: 64 << 20})
		ingestBytes(t, s, "t", namedSpill(t, rounds))
		perAgg = map[string]uint64{}
		for _, agg := range Aggs[1:] {
			p := Params{Tenant: "t", Agg: agg, HasPid: agg == "timebreak", Pid: 2}
			if _, err := s.Query(p); err != nil { // fills the cache
				t.Fatal(err)
			}
			res, err := s.Query(p)
			if err != nil || res.SegsCached != res.SegsScanned || res.byCPU == nil {
				t.Fatalf("%s: %d of %d segments cached, runs kept %v: %v", agg, res.SegsCached, res.SegsScanned, res.byCPU != nil, err)
			}
			// The least of three: a goroutine of the store's may allocate
			// during one.
			perAgg[agg], events = ^uint64(0), len(res.Events)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := res.Format(io.Discard, 1)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				perAgg[agg] = min(perAgg[agg], after.TotalAlloc-before.TotalAlloc)
			}
		}
		return perAgg, events
	}
	small, few := allocs(600)
	large, many := allocs(2400)
	if many < 4*few-100 {
		t.Fatalf("fixtures hold %d and %d events: not four times as many", few, many)
	}
	for _, agg := range Aggs[1:] {
		if a, b := small[agg], large[agg]; max(a, b)-min(a, b) > 1<<10 {
			t.Errorf("a warm %s formats in %d bytes at %d events, %d at %d; want the same within 1 KiB",
				agg, a, few, b, many)
		}
	}
}
