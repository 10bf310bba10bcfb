package store

import (
	"bytes"
	"net/url"
	"os"
	"sync"
	"testing"

	"k42trace/internal/event"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// fuzzFixture is built once per fuzz process: a store with one tenant
// split across segments, plus the flat baseline stream for oracle checks.
type fuzzFixture struct {
	s *Store
	// plain is a second, read-only handle on s's root with the cache off:
	// nobody keeps its runs, so the merge pulls its whole-matching blocks.
	plain *Store
	// paged is a third handle with a cache of its own, asked only for
	// pages: a page's first query of a window fills it cold.
	paged *Store
	base  []event.Event
	hz    uint64
}

var (
	fuzzOnce sync.Once
	fuzzFix  *fuzzFixture
	fuzzErr  error
)

func getFuzzFixture(t testing.TB) *fuzzFixture {
	fuzzOnce.Do(func() {
		var buf bytes.Buffer
		if _, err := sdet.Run(sdet.Config{CPUs: 4, Trace: sdet.TraceOn,
			Params: sdet.Params{ScriptsPerCPU: 16, CommandsPerScript: 20, Seed: 5},
			Sample: 10_000, HWCSample: 12_000}, &buf); err != nil {
			fuzzErr = err
			return
		}
		data := buf.Bytes()
		rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			fuzzErr = err
			return
		}
		evs, _, err := rd.ReadAll()
		if err != nil {
			fuzzErr = err
			return
		}
		rootDir, err := os.MkdirTemp("", "store-fuzz-*")
		if err != nil {
			fuzzErr = err
			return
		}
		lo, hi := evs[0].Time, evs[len(evs)-1].Time
		// The cache is on so every fuzz case exercises the cached path:
		// the first pruned query fills it cold, the second hits warm, and
		// the NoPrune full scan bypasses it as the baseline.
		s, err := Open(Options{Root: rootDir, SegmentSpan: (hi - lo) / 7, Workers: 2,
			CacheBytes: 32 << 20})
		if err != nil {
			fuzzErr = err
			return
		}
		if _, err := s.Ingest("acme", bytes.NewReader(data), int64(len(data))); err != nil {
			fuzzErr = err
			return
		}
		plain, err := Open(Options{Root: rootDir, Workers: 2})
		if err != nil {
			fuzzErr = err
			return
		}
		paged, err := Open(Options{Root: rootDir, Workers: 2, CacheBytes: 32 << 20})
		if err != nil {
			fuzzErr = err
			return
		}
		fuzzFix = &fuzzFixture{s: s, plain: plain, paged: paged, base: evs, hz: rd.Meta().ClockHz}
	})
	if fuzzErr != nil {
		t.Fatal(fuzzErr)
	}
	return fuzzFix
}

// FuzzQueryParams fuzzes the query parameter parser and, for every query
// string that parses, checks the transparency invariant: an index-pruned
// scan — uncached, its whole-matching blocks pulled under the merge, and
// cached, cold and warm — must return exactly the events of a
// cache-bypassing full scan, which must in turn match the offline filter
// of the original merged stream — with the cursor's skip applied to the
// oracle when the query carries one. An aggregation must format the same
// bytes on every handle as the offline filter's events do, whether its
// merge pulled (the uncached handle's) or walks the runs it merged (the
// cached and full-scan handles'). A query with a limit is then asked again
// as the page it is, of every handle: the merge that stops after the page
// must stop exactly there.
func FuzzQueryParams(f *testing.F) {
	seeds := []string{
		"tenant=acme",
		"tenant=acme&from=100&to=2000",
		"tenant=acme&major=sched",
		"tenant=acme&major=lock&minor=3",
		"tenant=acme&pid=2",
		"tenant=acme&from=1&to=18446744073709551615&pid=0",
		"tenant=acme&agg=overview",
		"tenant=acme&agg=profile&pid=1&limit=10",
		"tenant=acme&agg=timebreak&pid=1",
		"tenant=other&major=test",
		"tenant=&from=x",
		"minor=7",
		"tenant=acme&agg=bogus",
		"tenant=acme&from=9&to=9",
		"tenant=a%20b&pid=-1",
		"tenant=acme&limit=5",
		"tenant=acme&agg=events&limit=7&cursor=k1.MTAwOjA6MQ",
		"tenant=acme&major=sched&cursor=k1.MjAwMDA6Mzox",
		"tenant=acme&cursor=garbage",
		"tenant=acme&agg=overview&cursor=k1.MTAwOjA6MQ",
		"tenant=acme&major=sched&limit=3&cursor=k1.MjAwMDA6Mzox",
		"tenant=acme&pid=2&limit=1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, query string) {
		v, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		p, err := ParseParams(v)
		if err != nil {
			return // rejected input: the parser's job is just not to panic
		}
		// Round-trip: an accepted param set must re-encode and re-parse to
		// itself.
		p2, err := ParseParams(p.values())
		if err != nil {
			t.Fatalf("accepted params did not re-parse: %v (from %q)", err, query)
		}
		if p2 != p {
			t.Fatalf("params round-trip changed: %+v -> %+v", p, p2)
		}

		// Transparency invariant against the fixture store. An aggregation
		// takes every match, as a listing does with Limit cleared, so compare
		// events directly; Limit is cleared so pagination does not truncate
		// the comparison, but an accepted cursor stays and must skip
		// identically everywhere.
		fix := getFuzzFixture(t)
		p.Tenant = "acme"
		limit := p.Limit
		p.Limit = 0
		p.NoPrune = false
		pulled, err := fix.plain.Query(p)
		if err != nil {
			t.Fatalf("uncached query: %v", err)
		}
		cold, err := fix.s.Query(p)
		if err != nil {
			t.Fatalf("cold cached query: %v", err)
		}
		warm, err := fix.s.Query(p)
		if err != nil {
			t.Fatalf("warm cached query: %v", err)
		}
		p.NoPrune = true
		full, err := fix.s.Query(p)
		if err != nil {
			t.Fatalf("full-scan query: %v", err)
		}
		if !sameEvents(pulled.Events, full.Events) {
			t.Fatalf("pruned+pulled (uncached) changed results for %q: %d vs %d full events",
				query, len(pulled.Events), len(full.Events))
		}
		if !sameEvents(cold.Events, full.Events) {
			t.Fatalf("pruned+cached (cold) changed results for %q: %d vs %d full events",
				query, len(cold.Events), len(full.Events))
		}
		if !sameEvents(warm.Events, full.Events) {
			t.Fatalf("cache hit (warm) changed results for %q: %d vs %d full events",
				query, len(warm.Events), len(full.Events))
		}
		want := MatchStream(fix.base, p)
		if p.Cursor != "" {
			c, err := decodeCursor(p.Cursor)
			if err != nil {
				t.Fatalf("accepted cursor failed to decode: %v", err)
			}
			want = applyCursor(want, c)
		}
		if !sameEvents(full.Events, want) {
			t.Fatalf("store scan diverges from offline filter for %q: %d vs %d events",
				query, len(full.Events), len(want))
		}

		// The report: what analysis.Build of the offline filter's events
		// formats, byte for byte.
		if p.Agg != "events" {
			var wantRep bytes.Buffer
			if err := (&Result{Params: p, Hz: fix.hz, Events: want}).Format(&wantRep, 2); err != nil {
				t.Fatalf("formatting the offline %s: %v", p.Agg, err)
			}
			for _, h := range []struct {
				name string
				r    *Result
			}{{"pulled", pulled}, {"cold", cold}, {"warm", warm}, {"full-scan", full}} {
				if h.name != "pulled" && len(want) > 0 && h.r.byCPU == nil {
					t.Fatalf("%s %s of %q merged runs in memory and kept none of them", h.name, p.Agg, query)
				}
				var got bytes.Buffer
				if err := h.r.Format(&got, 2); err != nil || !bytes.Equal(got.Bytes(), wantRep.Bytes()) {
					t.Fatalf("%s %s of %q (runs kept %v) formats %d bytes, the offline filter's %d: %v",
						h.name, p.Agg, query, h.r.byCPU != nil, got.Len(), wantRep.Len(), err)
				}
			}
		}

		// The page: with the Limit kept, every handle returns the first
		// Limit events of the answer after the cursor, and a token exactly
		// when more remain.
		if limit == 0 {
			return
		}
		p.Agg, p.Limit = "events", limit
		wantPage := want[:min(limit, len(want))]
		for _, h := range []struct {
			name    string
			s       *Store
			noPrune bool
		}{{"pulled", fix.plain, false}, {"cold", fix.paged, false}, {"warm", fix.paged, false}, {"full-scan", fix.s, true}} {
			p.NoPrune = h.noPrune
			r, err := h.s.Query(p)
			if err != nil {
				t.Fatalf("%s page: %v", h.name, err)
			}
			if !sameEvents(r.Events, wantPage) || (r.NextCursor != "") != (len(want) > limit) {
				t.Fatalf("%s page of %q: %d events and next cursor %q; want the first %d of %d",
					h.name, query, len(r.Events), r.NextCursor, len(wantPage), len(want))
			}
		}
	})
}

// applyCursor is the offline cursor: it drops the prefix of a merged,
// filtered event stream that earlier pages already emitted — events ordered
// before the position, and the first seen events at exactly the position's
// (Time, CPU).
func applyCursor(evs []event.Event, c cursor) []event.Event {
	skipped := uint64(0)
	for i := range evs {
		e := &evs[i]
		if e.Time < c.time || (e.Time == c.time && e.CPU < c.cpu) {
			continue
		}
		if e.Time == c.time && e.CPU == c.cpu && skipped < c.seen {
			skipped++
			continue
		}
		return evs[i:]
	}
	return nil
}
