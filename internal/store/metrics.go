package store

import (
	"bytes"
	"io"
	"maps"
	"slices"
	"sync"
	"time"

	"k42trace/internal/promtext"
)

// queryBuckets are the latency histograms' upper bounds (seconds).
var queryBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// A tenantCounter is one per-tenant counter: the family it renders in, the
// family's help and the labels it has beside the tenant.
type tenantCounter struct {
	family, help string
	labels       []string
}

// tenantCounters is every per-tenant counter, in page order; a tenant's
// totals are a slice indexed the same way. Counters of one family are
// declared one after another and render together, tenant by tenant.
var tenantCounters []tenantCounter

// counter declares one per-tenant counter and returns its slot.
func counter(family, help string, labels ...string) int {
	tenantCounters = append(tenantCounters, tenantCounter{family, help, labels})
	return len(tenantCounters) - 1
}

var (
	nIngests        = counter("tracestored_ingests_total", "Spill uploads accepted per tenant.")
	nIngestEvents   = counter("tracestored_ingest_events_total", "Events stored per tenant.")
	nIngestBlocks   = counter("tracestored_ingest_blocks_total", "Blocks stored per tenant.")
	nIngestSalvaged = counter("tracestored_ingest_salvaged_total", "Uploads that needed salvage repair per tenant.")
	nQueries        = counter("tracestored_queries_total", "Queries served per tenant.")
	nQueryErrors    = counter("tracestored_query_errors_total", "Queries that failed per tenant.")
	nQueryGone      = counter("tracestored_query_gone_total", "Queries that hit a deleted segment (410) per tenant.")
	nBlocksScanned  = counter("tracestored_query_blocks_scanned_total", "Blocks decoded by queries per tenant.")
	nBlocksPruned   = counter("tracestored_query_blocks_pruned_total", "Blocks skipped by the index per tenant.")
	nSegsPruned     = counter("tracestored_query_segments_pruned_total", "Whole segments skipped by the catalog per tenant.")
	nCompactions    = counter("tracestored_compactions_total", "Compaction passes that merged segments per tenant.")
	nCompactedSegs  = counter("tracestored_compacted_segments_total", "Segments consumed by compaction per tenant.")
	nGCSegments     = counter("tracestored_gc_segments_total", "Segments expired by retention per tenant.")
	nGCBytes        = counter("tracestored_gc_bytes_total", "Bytes reclaimed by retention per tenant.")
	nCompactErrors  = counter("tracestored_maintenance_errors_total", "Failed maintenance passes per tenant and op.", "op", "compact")
	nGCErrors       = counter("tracestored_maintenance_errors_total", "", "op", "gc") // the family's help is its first counter's
	nCacheHits      = counter("tracestored_cache_hits_total", "Segment scans answered from the result cache per tenant.")
	nCacheMisses    = counter("tracestored_cache_misses_total", "Segment scans that read blocks per tenant.")
	nAdmitted       = counter("tracestored_admission_admitted_total", "Queries granted a scan slot per tenant.")
	nQueued         = counter("tracestored_admission_queued_total", "Queries that waited for a scan slot per tenant.")
	nRejected       = counter("tracestored_admission_rejected_total", "Queries refused with 429 per tenant.")
)

// Metrics is the store's cumulative counter set, rendered in the
// Prometheus text exposition format.
type Metrics struct {
	mu      sync.Mutex
	tenants map[string][]uint64

	// Query latency and the admission queue wait of queries that queued:
	// global, since per-tenant histograms would multiply series.
	latency, wait promtext.Histogram

	cacheEvictions uint64
}

func (m *Metrics) init() {
	m.tenants = map[string][]uint64{}
	m.latency = promtext.NewHistogram(queryBuckets)
	m.wait = promtext.NewHistogram(queryBuckets)
}

func (m *Metrics) tc(tenant string) []uint64 {
	c := m.tenants[tenant]
	if c == nil {
		c = make([]uint64, len(tenantCounters))
		m.tenants[tenant] = c
	}
	return c
}

func (m *Metrics) ingest(tenant string, res *IngestResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.tc(tenant)
	c[nIngests]++
	c[nIngestEvents] += res.Events
	c[nIngestBlocks] += uint64(res.Blocks)
	if res.Salvaged {
		c[nIngestSalvaged]++
	}
}

// query records one query's outcome and pruning effectiveness.
func (m *Metrics) query(tenant string, dur time.Duration, scanned, pruned, segsPruned int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.tc(tenant)
	c[nQueries]++
	if err != nil {
		c[nQueryErrors]++
		if isGone(err) {
			c[nQueryGone]++
		}
	}
	c[nBlocksScanned] += uint64(scanned)
	c[nBlocksPruned] += uint64(pruned)
	c[nSegsPruned] += uint64(segsPruned)
	m.latency.Observe(dur.Seconds())
}

func (m *Metrics) compact(tenant string, merged int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.tc(tenant)
	c[nCompactions]++
	c[nCompactedSegs] += uint64(merged)
}

// maintError records one failed maintenance pass (op is "compact" or
// "gc").
func (m *Metrics) maintError(tenant, op string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	slot := nCompactErrors
	if op == "gc" {
		slot = nGCErrors
	}
	m.tc(tenant)[slot]++
}

// cacheScan records one query's per-segment cache outcomes.
func (m *Metrics) cacheScan(tenant string, hits, misses int) {
	if hits == 0 && misses == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.tc(tenant)
	c[nCacheHits] += uint64(hits)
	c[nCacheMisses] += uint64(misses)
}

func (m *Metrics) cacheEvict(n int) {
	m.mu.Lock()
	m.cacheEvictions += uint64(n)
	m.mu.Unlock()
}

// admission records one admission decision; waited is the queue time for
// queries that had to wait (zero for immediate grants).
func (m *Metrics) admission(tenant string, outcome admOutcome, waited time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.tc(tenant)
	switch outcome {
	case admImmediate:
		c[nAdmitted]++
	case admQueued:
		c[nAdmitted]++
		c[nQueued]++
		m.wait.Observe(waited.Seconds())
	case admRejected:
		c[nRejected]++
	}
}

func (m *Metrics) gc(tenant string, segs int, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.tc(tenant)
	c[nGCSegments] += uint64(segs)
	c[nGCBytes] += uint64(bytes)
}

// Write renders the metrics page. The store is passed in so catalog
// gauges (segments, bytes, events per tenant) reflect the live view
// rather than counters.
func (m *Metrics) Write(w io.Writer, s *Store) {
	stats := s.Tenants()
	cacheBytes, cacheEntries := s.cache.stats()
	active, waiting := s.adm.stats()

	// The page is rendered into memory under the lock, so a slow scraper
	// never holds up a recorder.
	var b bytes.Buffer
	m.mu.Lock()
	names := slices.Sorted(maps.Keys(m.tenants))
	for i := 0; i < len(tenantCounters); {
		f := tenantCounters[i]
		end := i + 1
		for end < len(tenantCounters) && tenantCounters[end].family == f.family {
			end++
		}
		promtext.Family(&b, f.family, "counter", f.help)
		for _, n := range names {
			for slot := i; slot < end; slot++ {
				labels := append([]string{"tenant", n}, tenantCounters[slot].labels...)
				promtext.Sample(&b, f.family, m.tenants[n][slot], labels...)
			}
		}
		i = end
	}
	promtext.Family(&b, "tracestored_cache_evictions_total", "counter", "Cache entries evicted by the byte budget.")
	promtext.Sample(&b, "tracestored_cache_evictions_total", m.cacheEvictions)

	for _, g := range []struct {
		name, help string
		v          func(TenantStats) int64
	}{
		{"tracestored_segments", "Live segments per tenant.", func(st TenantStats) int64 { return int64(st.Segments) }},
		{"tracestored_bytes", "Stored segment bytes per tenant.", func(st TenantStats) int64 { return st.Bytes }},
		{"tracestored_events", "Stored events per tenant.", func(st TenantStats) int64 { return int64(st.Events) }},
	} {
		promtext.Family(&b, g.name, "gauge", g.help)
		for _, st := range stats {
			promtext.Sample(&b, g.name, g.v(st), "tenant", st.Name)
		}
	}
	for _, g := range []struct {
		name, help string
		v          int64
	}{
		{"tracestored_cache_bytes", "Resident segment-cache bytes.", cacheBytes},
		{"tracestored_cache_entries", "Resident segment-cache entries.", int64(cacheEntries)},
		{"tracestored_admission_active", "Queries holding a scan slot.", int64(active)},
		{"tracestored_admission_waiting", "Queries waiting for a scan slot.", int64(waiting)},
	} {
		promtext.Family(&b, g.name, "gauge", g.help)
		promtext.Sample(&b, g.name, g.v)
	}

	m.latency.Write(&b, "tracestored_query_seconds", "Query latency.")
	m.wait.Write(&b, "tracestored_admission_wait_seconds", "Scan-slot queue wait of queries that queued.")
	m.mu.Unlock()
	w.Write(b.Bytes())
}
