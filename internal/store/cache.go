package store

import (
	"container/list"
	"sync"

	"k42trace/internal/event"
)

// segCache is the segment-level query result cache: the filtered runs
// one scanSegment call produced, keyed by (tenant, segment ID,
// normalized params fingerprint). Segments are immutable, so an entry is
// valid for the segment's whole life — entries are never invalidated,
// only evicted (LRU by bytes) or dropped wholesale when their segment
// retires from the catalog (compaction or GC replaced it). A query over N
// segments therefore reuses up to N cached per-segment partials and scans
// only segments it has not seen; the partials merge through the same
// stable (Time, CPU) sort every query uses, so cached and uncached
// answers are structurally identical.
//
// The fingerprint normalizes the time range to the segment's own bounds:
// filtering a segment whose events live in [MinTime, MaxTime] with any
// window covering it yields the same events, so dashboards sliding their
// query window still hit for every fully-covered segment.
type segCache struct {
	metrics *Metrics

	mu      sync.Mutex
	max     int64
	bytes   int64
	lru     *list.List // front = most recently used; values are *cacheEntry
	entries map[cacheKey]*list.Element
	bySeg   map[segRef]map[cacheKey]struct{}
}

// segRef names one segment globally (segment IDs are per-tenant).
type segRef struct {
	tenant string
	id     uint64
}

// fingerprint is the scan-relevant slice of Params: everything that
// changes which events a segment scan returns. Agg, Limit, Cursor and
// NoPrune are not part of it — aggregation and pagination happen after
// the per-segment scan, and NoPrune queries bypass the cache (they are
// the transparency baseline).
type fingerprint struct {
	from, to uint64 // normalized to the segment's time bounds
	hasMajor bool
	major    event.Major
	hasMinor bool
	minor    uint16
	hasPid   bool
	pid      uint64
}

type cacheKey struct {
	seg segRef
	fp  fingerprint
}

type cacheEntry struct {
	key  cacheKey
	runs [][]event.Event
	size int64
}

// fingerprintFor clamps the query window to the segment's bounds: events
// all live in [MinTime, MaxTime], so any window covering a side of the
// segment filters identically to the clamped one.
func fingerprintFor(p *Params, si *SegmentInfo) fingerprint {
	fp := fingerprint{
		from:     p.From,
		to:       p.effTo(),
		hasMajor: p.HasMajor, major: p.Major,
		hasMinor: p.HasMinor, minor: p.Minor,
		hasPid: p.HasPid, pid: p.Pid,
	}
	if fp.from < si.MinTime {
		fp.from = si.MinTime
	}
	if si.MaxTime != ^uint64(0) && fp.to > si.MaxTime+1 {
		fp.to = si.MaxTime + 1
	}
	return fp
}

// eventsSize estimates an entry's resident bytes: slice headers plus the
// copied payload words.
func eventsSize(runs [][]event.Event) int64 {
	n := int64(128) // map/list bookkeeping overhead per entry
	for _, evs := range runs {
		for i := range evs {
			n += 56 + 8*int64(len(evs[i].Data))
		}
	}
	return n
}

// newSegCache returns a cache with the given byte budget; maxBytes <= 0
// disables caching (every method is a cheap no-op).
func newSegCache(maxBytes int64, metrics *Metrics) *segCache {
	c := &segCache{metrics: metrics, max: maxBytes}
	if c.max > 0 {
		c.lru = list.New()
		c.entries = map[cacheKey]*list.Element{}
		c.bySeg = map[segRef]map[cacheKey]struct{}{}
	}
	return c
}

func (c *segCache) enabled() bool { return c != nil && c.max > 0 }

// get returns the cached filtered runs for one segment scan. The
// returned runs are shared and must be treated as read-only.
func (c *segCache) get(key cacheKey) ([][]event.Event, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[key]
	if el == nil {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).runs, true
}

// put stores one scan's result, evicting from the LRU tail until the
// budget holds. Results bigger than the whole budget are not cached.
func (c *segCache) put(key cacheKey, runs [][]event.Event) {
	if !c.enabled() {
		return
	}
	size := eventsSize(runs)
	if size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[key]; el != nil {
		// Racing scans of the same miss: keep the resident entry.
		c.lru.MoveToFront(el)
		return
	}
	e := &cacheEntry{key: key, runs: runs, size: size}
	c.entries[key] = c.lru.PushFront(e)
	seg := c.bySeg[key.seg]
	if seg == nil {
		seg = map[cacheKey]struct{}{}
		c.bySeg[key.seg] = seg
	}
	seg[key] = struct{}{}
	c.bytes += size
	evicted := 0
	for c.bytes > c.max {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail)
		evicted++
	}
	if evicted > 0 && c.metrics != nil {
		c.metrics.cacheEvict(evicted)
	}
}

// dropSegment removes every entry of one retired segment: the segment
// left the catalog (compaction or GC), so its partials can never be
// needed again.
func (c *segCache) dropSegment(ref segRef) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.bySeg[ref] {
		if el := c.entries[key]; el != nil {
			c.removeLocked(el)
		}
	}
}

// removeLocked unlinks one entry from all three structures.
func (c *segCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	if seg := c.bySeg[e.key.seg]; seg != nil {
		delete(seg, e.key)
		if len(seg) == 0 {
			delete(c.bySeg, e.key.seg)
		}
	}
	c.bytes -= e.size
}

// stats reports resident bytes and entry count for the metrics page.
func (c *segCache) stats() (bytes int64, entries int) {
	if !c.enabled() {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, len(c.entries)
}
