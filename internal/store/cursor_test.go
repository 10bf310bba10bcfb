package store

import (
	"bytes"
	"encoding/base64"
	"net/url"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/stream"
)

// TestCursorTokenRoundTrip pins the token format: encode/decode is the
// identity, and every malformation is rejected (cursors are opaque;
// clients must never synthesize one).
func TestCursorTokenRoundTrip(t *testing.T) {
	for _, c := range []cursor{
		{},
		{time: 1, cpu: 0, seen: 0},
		{time: ^uint64(0), cpu: 255, seen: 12345},
	} {
		got, err := decodeCursor(encodeCursor(c))
		if err != nil {
			t.Fatalf("round-trip %+v: %v", c, err)
		}
		if got != c {
			t.Fatalf("round-trip changed cursor: %+v -> %+v", c, got)
		}
	}
	for _, bad := range []string{
		"", "k1", "k2.MTowOjA", "k1.!!!!", "k1.", "k1.aGVsbG8", "k1.MTowOi0x",
	} {
		if _, err := decodeCursor(bad); err == nil {
			t.Fatalf("decodeCursor(%q) accepted garbage", bad)
		}
	}
	// Well-encoded tokens whose text is not exactly three numbers: trailing
	// bytes, a fourth field, a field missing or empty.
	for _, raw := range []string{"1:0:0junk", "1:0:0:0", "1:0", "1::0", ":0:0", "1:0:", "1:0:0 "} {
		if c, err := decodeCursor(cursorPrefix + base64.RawURLEncoding.EncodeToString([]byte(raw))); err == nil {
			t.Fatalf("decodeCursor accepted %q as %+v", raw, c)
		}
	}
	// The parser surfaces the same rejection as HTTP 400, and refuses
	// cursors on aggregations.
	if _, err := ParseParams(url.Values{"tenant": {"acme"}, "cursor": {"junk"}}); err == nil {
		t.Fatal("ParseParams accepted a malformed cursor")
	}
	if _, err := ParseParams(url.Values{"tenant": {"acme"}, "agg": {"overview"},
		"cursor": {encodeCursor(cursor{time: 5})}}); err == nil {
		t.Fatal("ParseParams accepted a cursor on an aggregation")
	}
}

// walkPages pages through an agg=events query and returns the
// concatenated events and rendered bytes, plus the page count. onPage
// runs between pages (pagination must tolerate maintenance mid-walk).
func walkPages(t *testing.T, s *Store, p Params, limit int, onPage func(page int)) ([]event.Event, []byte, int) {
	t.Helper()
	p.Agg, p.Limit, p.Cursor = "events", limit, ""
	var evs []event.Event
	var buf bytes.Buffer
	pages := 0
	for {
		r, err := s.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Events) > limit {
			t.Fatalf("page %d holds %d events, limit is %d", pages, len(r.Events), limit)
		}
		evs = append(evs, r.Events...)
		if err := r.Format(&buf, 2); err != nil {
			t.Fatal(err)
		}
		pages++
		if pages > 100000 {
			t.Fatal("cursor walk did not terminate")
		}
		if onPage != nil {
			onPage(pages)
		}
		if r.NextCursor == "" {
			return evs, buf.Bytes(), pages
		}
		p.Cursor = r.NextCursor
	}
}

// TestCursorPagination is the pagination contract: walking an events
// listing page by page and concatenating the pages is byte-identical to
// the unpaginated listing — same events, same rendered text — for full
// and predicated queries, at page sizes that do and do not divide the
// result evenly.
func TestCursorPagination(t *testing.T) {
	data := sdetSpill(t, 42)
	base, _ := readAllEvents(t, data)
	lo, hi := base[0].Time, base[len(base)-1].Time

	s := openStore(t, Options{SegmentSpan: (hi - lo) / 7, Workers: 2, CacheBytes: 32 << 20})
	ingestBytes(t, s, "acme", data)

	queries := []Params{
		{Tenant: "acme"},
		{Tenant: "acme", HasMajor: true, Major: event.MajorSched},
		{Tenant: "acme", From: lo + (hi-lo)/4, To: lo + 3*(hi-lo)/4},
	}
	for _, p := range queries {
		p.Agg = "events"
		full, err := s.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		if full.NextCursor != "" {
			t.Fatalf("%v: unpaginated query produced a cursor", p.values().Encode())
		}
		var fullTxt bytes.Buffer
		if err := full.Format(&fullTxt, 2); err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{137, 1000, len(full.Events) + 1} {
			evs, txt, pages := walkPages(t, s, p, limit, nil)
			if !sameEvents(evs, full.Events) {
				t.Fatalf("%v limit=%d: paginated walk diverged (%d vs %d events)",
					p.values().Encode(), limit, len(evs), len(full.Events))
			}
			if !bytes.Equal(txt, fullTxt.Bytes()) {
				t.Fatalf("%v limit=%d: concatenated pages are not byte-identical to the full listing",
					p.values().Encode(), limit)
			}
			if wantPages := (len(full.Events) + limit - 1) / limit; limit <= len(full.Events) && pages < wantPages {
				t.Fatalf("%v limit=%d: %d pages for %d events", p.values().Encode(), limit, pages, len(full.Events))
			}
		}
	}
}

// TestCursorSurvivesCompaction: a cursor is a position, not a segment
// address — compacting the store mid-walk (which retires and replaces
// the segments the cursor was minted against) must not change what the
// remaining pages return.
func TestCursorSurvivesCompaction(t *testing.T) {
	data := sdetSpill(t, 11)
	base, _ := readAllEvents(t, data)
	lo, hi := base[0].Time, base[len(base)-1].Time

	s := openStore(t, Options{SegmentSpan: (hi - lo) / 6, Workers: 2, CacheBytes: 32 << 20})
	if res := ingestBytes(t, s, "acme", data); len(res.Segments) < 2 {
		t.Fatalf("need a multi-segment split, got %d segments", len(res.Segments))
	}

	p := Params{Tenant: "acme", Agg: "events"}
	full, err := s.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	var fullTxt bytes.Buffer
	if err := full.Format(&fullTxt, 2); err != nil {
		t.Fatal(err)
	}

	limit := len(full.Events)/7 + 1
	compacted := false
	evs, txt, _ := walkPages(t, s, p, limit, func(page int) {
		if page == 3 {
			res, err := s.Compact("acme")
			if err != nil {
				t.Fatal(err)
			}
			if res.In == 0 {
				t.Fatal("mid-walk compaction merged nothing; the test is vacuous")
			}
			compacted = true
		}
	})
	if !compacted {
		t.Fatal("walk finished before the compaction point")
	}
	if !sameEvents(evs, full.Events) {
		t.Fatalf("pages diverged across compaction (%d vs %d events)", len(evs), len(full.Events))
	}
	if !bytes.Equal(txt, fullTxt.Bytes()) {
		t.Fatal("concatenated pages are not byte-identical across compaction")
	}
}

// stuckClock reads what the test last stored: every event logged between
// two stores has the same stamp.
type stuckClock struct{ now atomic.Uint64 }

func (c *stuckClock) Now(int) uint64 { return c.now.Load() }
func (c *stuckClock) Hz() uint64     { return 1e9 }

// scriptSpill captures what script logs into bufWords-word blocks: each
// call of log stamps n events on cpu with the time at.
func scriptSpill(t *testing.T, cpus, bufWords int, script func(log func(cpu int, at uint64, n int))) []byte {
	t.Helper()
	clk := &stuckClock{}
	tr := core.MustNew(core.Config{CPUs: cpus, BufWords: bufWords, NumBufs: 4, Mode: core.Stream, Clock: clk})
	tr.EnableAll()
	var buf bytes.Buffer
	wait := stream.CaptureAsync(tr, &buf)
	serial := uint64(0)
	script(func(cpu int, at uint64, n int) {
		clk.now.Store(at)
		for ; n > 0; n-- {
			serial++
			tr.CPU(cpu).Log1(event.MajorTest, 1, serial)
		}
	})
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCursorWalksThroughTies: a cursor resumes inside a run of events that
// tie on (Time, CPU), and a page can end inside one. One CPU logs five
// blocks' worth of events at one stamp and the other CPU a block's worth at
// the same stamp, so a resumed page starts by skipping a head that is the
// whole first CPU's run (ordered before the cursor's CPU) or part of a run
// (the first seen at the cursor's position), and none of it counts against
// the page. Walked one, two and three events a page, cached and pulled, the
// pages concatenate to the unpaginated listing.
func TestCursorWalksThroughTies(t *testing.T) {
	data := scriptSpill(t, 2, 64, func(log func(cpu int, at uint64, n int)) {
		for at := uint64(10); at <= 200; at += 10 {
			log(0, at, 3)
			log(1, at, 2)
		}
		log(0, 500, 150)
		log(1, 500, 40)
		for at := uint64(510); at <= 700; at += 10 {
			log(1, at, 2)
			log(0, at, 1)
		}
	})
	base, _ := readAllEvents(t, data)
	ties := 0
	for i := range base {
		if base[i].Time == 500 && base[i].CPU == 0 {
			ties++
		}
	}
	if ties < 150 {
		t.Fatalf("the fixture holds %d events at (500, CPU 0), want at least 150", ties)
	}
	for _, cached := range []bool{false, true} {
		opt := Options{SegmentSpan: 100, Workers: 4}
		if cached {
			opt.CacheBytes = 8 << 20
		}
		s := openStore(t, opt)
		ingestBytes(t, s, "acme", data)
		for _, p := range []Params{
			{Tenant: "acme", Agg: "events"},
			{Tenant: "acme", Agg: "events", From: 500, To: 501},
			{Tenant: "acme", Agg: "events", HasMajor: true, Major: event.MajorTest},
		} {
			full, err := s.Query(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := MatchStream(base, p); len(want) < 190 || !sameEvents(full.Events, want) {
				t.Fatalf("cache %v, %v: %d events, the spill's merge holds %d", cached, p.values(), len(full.Events), len(want))
			}
			var fullTxt bytes.Buffer
			if err := full.Format(&fullTxt, 2); err != nil {
				t.Fatal(err)
			}
			for _, limit := range []int{1, 2, 3} {
				evs, txt, pages := walkPages(t, s, p, limit, nil)
				if !sameEvents(evs, full.Events) || !bytes.Equal(txt, fullTxt.Bytes()) {
					t.Fatalf("cache %v, %v, limit %d: %d pages concatenate to %d events, the listing holds %d (or they differ)",
						cached, p.values(), limit, pages, len(evs), len(full.Events))
				}
				if want := (len(full.Events) + limit - 1) / limit; pages != want {
					t.Fatalf("cache %v, %v, limit %d: %d pages for %d events, want %d", cached, p.values(), limit, pages, len(full.Events), want)
				}
			}
		}
	}
}

// TestPageAllocatesAPage: a page costs a page. A cursor walk's every Query
// allocates the page it returns, and one event more that says whether
// anything remains — not a merge of everything behind it, which made the
// first page of this 15 000-event listing cost 720 KB. The constant is what
// a query costs whatever it returns: a CPU's block that straddles the
// cursor, cloned; a chain's first pulled block, its payload slab; and about
// a hundred bytes of plan for each of the 120 blocks still ahead (44 KB at
// most, on the first pages). Pulled with the cache off, and every page a hit
// with it on (the walk is made once to fill it); with one scan worker and
// four, and chains that a page's stop closes before they are drained.
func TestPageAllocatesAPage(t *testing.T) {
	data := scriptSpill(t, 2, 256, func(log func(cpu int, at uint64, n int)) {
		for at := uint64(1); at <= 15000; at++ {
			log(int(at%2), at, 1)
		}
	})
	base, _ := readAllEvents(t, data)
	const limit, constant = 100, 64 << 10
	lo, hi := base[0].Time, base[len(base)-1].Time
	bothWays(t, func(t *testing.T, workers int) {
		for _, cached := range []bool{false, true} {
			opt := Options{SegmentSpan: (hi - lo) / 8, Workers: workers}
			if cached {
				opt.CacheBytes = 64 << 20
			}
			s := openStore(t, opt)
			ingestBytes(t, s, "acme", data)
			p := Params{Tenant: "acme", Agg: "events", Limit: limit}
			walk := func(measure bool) (pages int) {
				p.Cursor = ""
				for seen := 0; ; pages++ {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					r, err := s.Query(p)
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					if !sameEvents(r.Events, base[seen:min(seen+limit, len(base))]) {
						t.Fatalf("cache %v, page %d: %d events differ from the listing's %d to %d", cached, pages, len(r.Events), seen, seen+limit)
					}
					seen += len(r.Events)
					got := after.TotalAlloc - before.TotalAlloc
					if max := uint64(limit+1)*uint64(unsafe.Sizeof(event.Event{}))*9/8 + constant; measure && got > max {
						t.Errorf("cache %v, page %d with %d events behind it: Query allocates %d bytes, want at most %d",
							cached, pages, len(base)-seen, got, max)
					}
					if r.NextCursor == "" {
						if seen != len(base) {
							t.Fatalf("cache %v: the walk ended after %d of %d events", cached, seen, len(base))
						}
						return pages + 1
					}
					p.Cursor = r.NextCursor
				}
			}
			walk(false) // warms the free list, and with the cache on fills it
			if pages := walk(true); pages < len(base)/limit {
				t.Fatalf("cache %v: %d pages over %d events", cached, pages, len(base))
			}
		}
	})
}
