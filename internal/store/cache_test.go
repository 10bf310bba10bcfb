package store

import (
	"strings"
	"testing"

	"k42trace/internal/event"
)

// TestCacheTransparency is the cache's correctness contract: for every
// query in the matrix, the cold cached answer, the warm cached answer,
// the cache-bypassing full scan, and the offline filter of the original
// stream must agree exactly — same events and byte-identical reports.
// The cache may only change how fast an answer arrives, never the answer.
func TestCacheTransparency(t *testing.T) {
	data := sdetSpill(t, 42)
	base, _ := readAllEvents(t, data)
	lo, hi := base[0].Time, base[len(base)-1].Time

	for _, tc := range []struct {
		name  string
		bytes int64
	}{
		{"roomy", 64 << 20}, // everything fits: warm queries hit
		{"tiny", 96 << 10},  // eviction pressure: most entries churn out
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t, Options{SegmentSpan: (hi - lo) / 7, Workers: 2, CacheBytes: tc.bytes})
			if res := ingestBytes(t, s, "acme", data); len(res.Segments) < 2 {
				t.Fatalf("need a multi-segment split, got %d segments", len(res.Segments))
			}

			warmHits := 0
			for _, p := range paramMatrix("acme", base) {
				want := MatchStream(base, p)

				full := p
				full.NoPrune = true // bypasses the cache: the baseline
				baseline, err := s.Query(full)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := s.Query(p)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := s.Query(p)
				if err != nil {
					t.Fatal(err)
				}
				warmHits += warm.SegsCached

				for _, got := range []*Result{baseline, cold, warm} {
					if !sameEvents(got.Events, want) {
						t.Fatalf("%v: cached path diverged from oracle (%d vs %d events)",
							p.values().Encode(), len(got.Events), len(want))
					}
				}
				var coldTxt, warmTxt, baseTxt strings.Builder
				if err := cold.Format(&coldTxt, 2); err != nil {
					t.Fatal(err)
				}
				if err := warm.Format(&warmTxt, 2); err != nil {
					t.Fatal(err)
				}
				if err := baseline.Format(&baseTxt, 2); err != nil {
					t.Fatal(err)
				}
				if coldTxt.String() != baseTxt.String() || warmTxt.String() != baseTxt.String() {
					t.Fatalf("%v: formatted output differs between cached and uncached", p.values().Encode())
				}
			}
			if tc.bytes > 1<<20 && warmHits == 0 {
				t.Fatal("no warm query was served from the cache")
			}
			if bytes, _ := s.cache.stats(); bytes > tc.bytes {
				t.Fatalf("cache holds %d bytes, budget is %d", bytes, tc.bytes)
			}
		})
	}
}

// TestCacheDropsRetiredSegments: when compaction retires segments, their
// cache entries must go with them — a retired segment's partials can
// never be served again, and keeping them would leak the budget.
func TestCacheDropsRetiredSegments(t *testing.T) {
	data := sdetSpill(t, 5)
	base, _ := readAllEvents(t, data)
	lo, hi := base[0].Time, base[len(base)-1].Time

	s := openStore(t, Options{SegmentSpan: (hi - lo) / 5, Workers: 2, CacheBytes: 64 << 20})
	ingestBytes(t, s, "acme", data)

	p := Params{Tenant: "acme"}
	if _, err := s.Query(p); err != nil {
		t.Fatal(err)
	}
	if _, entries := s.cache.stats(); entries == 0 {
		t.Fatal("query populated no cache entries")
	}
	warm, err := s.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	if warm.SegsCached == 0 {
		t.Fatal("warm query hit nothing")
	}

	// Compaction merges the whole upload into one segment: every old
	// segment retires, so every cached entry must drop.
	if _, err := s.Compact("acme"); err != nil {
		t.Fatal(err)
	}
	if _, entries := s.cache.stats(); entries != 0 {
		t.Fatalf("%d cache entries survived their segments' retirement", entries)
	}
	post, err := s.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	if post.SegsCached != 0 {
		t.Fatalf("post-compaction query claims %d cached segments", post.SegsCached)
	}
	if !sameEvents(post.Events, base) {
		t.Fatal("post-compaction query diverged from the upload")
	}
	again, err := s.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	if again.SegsCached == 0 {
		t.Fatal("compacted segment never re-entered the cache")
	}
	if !sameEvents(again.Events, base) {
		t.Fatal("re-warmed query diverged from the upload")
	}
}

// TestSegCacheLRU unit-tests the cache container itself: least recently
// used entries evict first, touches refresh recency, oversized entries
// are refused, and the byte accounting stays exact.
func TestSegCacheLRU(t *testing.T) {
	mkEvents := func(n int) [][]event.Event { return [][]event.Event{make([]event.Event, n)} }
	one := eventsSize(mkEvents(10)) // all entries the same size
	c := newSegCache(3*one, nil)

	key := func(id uint64, from uint64) cacheKey {
		return cacheKey{seg: segRef{tenant: "t", id: id}, fp: fingerprint{from: from, to: ^uint64(0)}}
	}
	k1, k2, k3, k4 := key(1, 0), key(2, 0), key(3, 0), key(4, 0)
	c.put(k1, mkEvents(10))
	c.put(k2, mkEvents(10))
	c.put(k3, mkEvents(10))
	if _, ok := c.get(k1); !ok {
		t.Fatal("k1 missing before any eviction")
	}
	// k1 was just touched, so k2 is now least recent: k4 must evict k2.
	c.put(k4, mkEvents(10))
	if _, ok := c.get(k2); ok {
		t.Fatal("k2 survived eviction; LRU order ignored the k1 touch")
	}
	for _, k := range []cacheKey{k1, k3, k4} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("entry %v evicted out of order", k.seg)
		}
	}
	if bytes, entries := c.stats(); entries != 3 || bytes != 3*one {
		t.Fatalf("stats = %d bytes / %d entries, want %d / 3", bytes, entries, 3*one)
	}

	// An entry bigger than the whole budget is refused outright.
	c.put(key(5, 0), mkEvents(1000))
	if _, ok := c.get(key(5, 0)); ok {
		t.Fatal("oversized entry was cached")
	}

	// Dropping a segment removes every fingerprint variant it holds. The
	// get loop above touched k1 first, so this put evicts it — and the
	// drop then removes segment 1's surviving variant.
	c.put(key(1, 7), mkEvents(10))
	c.dropSegment(segRef{tenant: "t", id: 1})
	if _, ok := c.get(k1); ok {
		t.Fatal("k1 survived eviction and its segment's drop")
	}
	if _, ok := c.get(key(1, 7)); ok {
		t.Fatal("segment 1's second entry survived the drop")
	}
	if _, entries := c.stats(); entries != 2 {
		t.Fatalf("%d entries after drop, want 2 (k3, k4)", entries)
	}

	// A disabled cache is inert.
	var off *segCache = newSegCache(0, nil)
	off.put(k1, mkEvents(10))
	if _, ok := off.get(k1); ok {
		t.Fatal("disabled cache stored an entry")
	}
}
