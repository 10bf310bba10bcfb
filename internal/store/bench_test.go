package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"k42trace/internal/event"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// benchFixture: one tenant split across segments, plus a narrow query
// whose answer lives in a small slice of them — the case index pruning
// exists for. Three stores share the ingested directory read-only: the
// plain one keeps the indexed/fullscan rows comparable across revisions,
// the cached one adds the segment result cache, and the admitted one
// adds admission control on top of the cache (its delta against
// warmcache is the admission overhead).
type benchFixture struct {
	s        *Store
	cached   *Store
	admitted *Store
	narrow   Params
}

var (
	benchOnce sync.Once
	benchFix  *benchFixture
	benchErr  error
)

func getBenchFixture(b *testing.B) *benchFixture {
	benchOnce.Do(func() {
		var buf bytes.Buffer
		if _, err := sdet.Run(sdet.Config{CPUs: 4, Trace: sdet.TraceOn,
			Params: sdet.Params{ScriptsPerCPU: 16, CommandsPerScript: 20, Seed: 42},
			Sample: 10_000, HWCSample: 12_000}, &buf); err != nil {
			benchErr = err
			return
		}
		data := buf.Bytes()
		rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			benchErr = err
			return
		}
		evs, _, err := rd.ReadAll()
		if err != nil {
			benchErr = err
			return
		}
		lo, hi := evs[0].Time, evs[len(evs)-1].Time
		dir, err := os.MkdirTemp("", "store-bench-*")
		if err != nil {
			benchErr = err
			return
		}
		s, err := Open(Options{Root: dir, SegmentSpan: (hi - lo) / 11})
		if err != nil {
			benchErr = err
			return
		}
		if _, err := s.Ingest("bench", bytes.NewReader(data), int64(len(data))); err != nil {
			benchErr = err
			return
		}
		cached, err := Open(Options{Root: dir, SegmentSpan: (hi - lo) / 11,
			CacheBytes: 256 << 20})
		if err != nil {
			benchErr = err
			return
		}
		admitted, err := Open(Options{Root: dir, SegmentSpan: (hi - lo) / 11,
			CacheBytes: 256 << 20,
			Admission: AdmissionOptions{MaxConcurrent: 16, TenantMax: 16,
				TenantQueue: 1 << 20}})
		if err != nil {
			benchErr = err
			return
		}
		q1 := lo + (hi-lo)*5/11
		benchFix = &benchFixture{s: s, cached: cached, admitted: admitted, narrow: Params{
			Tenant: "bench",
			From:   q1, To: q1 + (hi-lo)/11,
			HasMajor: true, Major: event.MajorSched,
		}}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchFix
}

// BenchmarkStoreQuery measures query latency with index pruning (the
// sidecar skips non-matching segments and blocks) against brute-force
// full scans, at 1, 16, and 64 concurrent in-flight queries — the
// EXPERIMENTS.md table comes from these rows. The warmcache rows rerun
// the indexed query against a store whose segment cache is pre-warmed
// (scans are answered from cached partials instead of block decodes);
// the admitted rows add the admission semaphore on top, so their delta
// against warmcache is the queueing overhead under contention. The
// wholerange rows ask the uncached store for everything, unpredicated: every
// block matches whole and is pulled under the merge, and B/op is the row to
// watch — the answer, once.
func BenchmarkStoreQuery(b *testing.B) {
	fix := getBenchFixture(b)
	fullscan := fix.narrow
	fullscan.NoPrune = true
	for _, mode := range []struct {
		name  string
		s     *Store
		p     Params
		concs []int
	}{
		{"indexed", fix.s, fix.narrow, []int{1, 16, 64}},
		{"fullscan", fix.s, fullscan, []int{1, 16, 64}},
		{"warmcache", fix.cached, fix.narrow, []int{1, 16, 64}},
		{"admitted", fix.admitted, fix.narrow, []int{1, 16, 64}},
		{"wholerange", fix.s, Params{Tenant: "bench"}, []int{1, 16}},
	} {
		for _, conc := range mode.concs {
			b.Run(fmt.Sprintf("%s/c%d", mode.name, conc), func(b *testing.B) {
				p := mode.p
				if mode.s.cache.enabled() {
					// Warm the cache so every timed iteration hits.
					if _, err := mode.s.Query(p); err != nil {
						b.Fatal(err)
					}
				}
				var evTotal atomic.Int64
				b.ResetTimer()
				var done atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < conc; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for done.Add(1) <= int64(b.N) {
							r, err := mode.s.Query(p)
							if err != nil {
								b.Error(err)
								return
							}
							evTotal.Add(int64(len(r.Events)))
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				if b.N > 0 && evTotal.Load() == 0 {
					b.Fatal("query matched nothing; fixture window is wrong")
				}
				b.ReportMetric(float64(evTotal.Load())/float64(b.N), "events/query")
			})
		}
	}
}

// BenchmarkStoreIngest measures the write path alone: one SDET spill
// through the tolerant scan into the segment files and sidecars of a fresh
// tenant, for a spill in order and for one the salvager has to put back in
// sequence. B/op is the row to watch: ingest holds one block of the spill at
// a time, so it stays at a few strides however large the spill. Those two
// rows ingest into one store, whose scan scratch is warm after the first op;
// the fresh row opens a store for each op, untimed, and so shows what a
// first ingest allocates.
func BenchmarkStoreIngest(b *testing.B) {
	clean := sdetSpill(b, 42)
	base, _ := readAllEvents(b, clean)
	span := (base[len(base)-1].Time - base[0].Time) / 11
	for _, row := range []struct {
		name  string
		data  []byte
		fresh bool
	}{
		{"clean", clean, false},
		{"out-of-sequence", reverseBlocks(b, clean), false},
		{"fresh", clean, true},
	} {
		b.Run(row.name, func(b *testing.B) {
			root := b.TempDir()
			s := openStore(b, Options{Root: root, SegmentSpan: span})
			b.SetBytes(int64(len(row.data)))
			b.ReportAllocs()
			b.ResetTimer()
			var events uint64
			for i := 0; i < b.N; i++ {
				if row.fresh {
					b.StopTimer()
					s = openStore(b, Options{Root: filepath.Join(root, fmt.Sprint(i)), SegmentSpan: span})
					b.StartTimer()
				}
				res, err := s.Ingest(fmt.Sprintf("t%d", i), bytes.NewReader(row.data), int64(len(row.data)))
				if err != nil {
					b.Fatal(err)
				}
				events = res.Events
			}
			b.ReportMetric(float64(events), "events/op")
		})
	}
}

// BenchmarkStoreCompact measures the merge alone: the eight segments an SDET
// spill twice the usual size was split into, decoded and written through
// into one. The ingest that sets each iteration up is not timed or counted.
// B/op is the row to watch, as for ingest: a merge holds one block at a time.
func BenchmarkStoreCompact(b *testing.B) {
	data := sdetRun(b, 32, 20, 42)
	base, _ := readAllEvents(b, data)
	s := openStore(b, Options{SegmentSpan: (base[len(base)-1].Time - base[0].Time) / 8})
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var res *CompactResult
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tenant := fmt.Sprintf("t%d", i)
		ingestBytes(b, s, tenant, data)
		b.StartTimer()
		var err error
		if res, err = s.Compact(tenant); err != nil {
			b.Fatal(err)
		}
	}
	if res.Out != 1 || res.In != 8 {
		b.Fatalf("want eight segments merged into one, got %+v", res)
	}
	b.ReportMetric(float64(res.Events), "events/op")
}
