package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"k42trace/internal/stream"
)

// Options configures a Store.
type Options struct {
	// Root is the directory owning all tenant namespaces.
	Root string
	// SegmentSpan is the time width (ticks) of one segment: an ingested
	// spill is split at SegmentSpan boundaries so queries touch only the
	// shards overlapping their range. 0 keeps each upload as one segment.
	SegmentSpan uint64
	// MaxSegmentBytes caps compaction output: adjacent segments merge only
	// while the result stays under it. 0 means 64 MiB.
	MaxSegmentBytes int64
	// RetainAge expires segments older than this (0 = no age limit).
	RetainAge time.Duration
	// RetainBytes caps a tenant's total segment bytes; GC drops the oldest
	// segments until under budget (0 = no byte limit).
	RetainBytes int64
	// Workers bounds the goroutines a query scans its segments on and
	// the scratch kept for them (0 = 8), and the decode and aggregation
	// workers of ingest, index builds and formatted answers
	// (0 = GOMAXPROCS).
	Workers int
	// CacheBytes budgets the segment-level query result cache (LRU by
	// bytes; 0 disables it). Segments are immutable, so entries never
	// invalidate — they evict, or drop when their segment retires.
	CacheBytes int64
	// Admission bounds the query scan pool per tenant (zero value =
	// admission control off).
	Admission AdmissionOptions
	// Now is the wall clock (tests inject a fixed one so fixtures are
	// reproducible). nil means time.Now.
	Now func() time.Time
}

func (o *Options) defaults() {
	if o.MaxSegmentBytes == 0 {
		o.MaxSegmentBytes = 64 << 20
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// Store is the multi-tenant segment store. All methods are safe for
// concurrent use.
type Store struct {
	opt Options

	mu      sync.Mutex
	tenants map[string]*tenant

	cache   *segCache
	adm     *admission
	metrics Metrics

	// scratch is the free list of scan scratch, at most one call's worth:
	// what one query's scan workers and chains, an ingest's scan or a
	// compaction decoded into, the next one's decode into.
	scratch *stream.ScratchList
}

// tenant is one namespace: its manifest (the catalog) and the live
// segment handles. The catalog lock (mu) covers manifest mutations and
// snapshotting; block scans run outside it, pinned by refcounts. The
// maintenance lock (maint) serializes whole Compact/GC passes: two
// concurrent passes would pick the same run and commit it twice —
// duplicating every event in the run — or let compaction resurrect
// segments GC just expired. maint is always acquired before mu and never
// the other way, so the pair cannot deadlock.
type tenant struct {
	name  string
	dir   string
	store *Store

	maint sync.Mutex
	mu    sync.Mutex
	man   manifest
	segs  map[uint64]*segment
}

// tenantNameRe: path-safe, no dot-leading names, bounded length.
var tenantNameRe = regexp.MustCompile(`^[a-zA-Z0-9_][a-zA-Z0-9._-]{0,63}$`)

// ValidTenant reports whether name is an acceptable tenant namespace.
func ValidTenant(name string) bool { return tenantNameRe.MatchString(name) }

// Open opens (or creates) a store rooted at opt.Root and recovers every
// tenant: manifests are loaded, and segment or sidecar files the manifest
// does not reference — the debris of a crash between segment write and
// manifest swap — are deleted. The recovered view is therefore exactly
// the last committed manifest.
func Open(opt Options) (*Store, error) {
	opt.defaults()
	if opt.Root == "" {
		return nil, fmt.Errorf("store: no root directory")
	}
	if err := os.MkdirAll(opt.Root, 0o755); err != nil {
		return nil, err
	}
	s := &Store{opt: opt, tenants: map[string]*tenant{}}
	s.scratch = stream.NewScratchList(scanParallelism(opt.Workers, math.MaxInt))
	s.metrics.init()
	s.cache = newSegCache(opt.CacheBytes, &s.metrics)
	s.adm = newAdmission(opt.Admission, &s.metrics)
	entries, err := os.ReadDir(opt.Root)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() || !ValidTenant(e.Name()) {
			continue
		}
		t, err := s.openTenant(e.Name())
		if err != nil {
			return nil, fmt.Errorf("store: recovering tenant %s: %w", e.Name(), err)
		}
		s.tenants[e.Name()] = t
	}
	return s, nil
}

// openTenant loads one tenant directory and sweeps orphans.
func (s *Store) openTenant(name string) (*tenant, error) {
	dir := filepath.Join(s.opt.Root, name)
	man, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	t := &tenant{name: name, dir: dir, store: s, man: man, segs: map[uint64]*segment{}}
	referenced := map[string]bool{manifestName: true}
	for i := range man.Segments {
		si := man.Segments[i]
		referenced[si.File] = true
		referenced[si.File+".kix"] = true
		t.segs[si.ID] = &segment{info: si, path: filepath.Join(dir, si.File)}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || referenced[e.Name()] {
			continue
		}
		// Orphan: an uncommitted segment, a stale sidecar, or a torn
		// manifest.tmp. All are pre-commit debris; remove them.
		os.Remove(filepath.Join(dir, e.Name()))
	}
	return t, nil
}

// getTenant returns an existing tenant, or nil.
func (s *Store) getTenant(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[name]
}

// tenantOrCreate returns the tenant, creating its directory on first use.
func (s *Store) tenantOrCreate(name string) (*tenant, error) {
	if !ValidTenant(name) {
		return nil, fmt.Errorf("store: invalid tenant name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tenants[name]; t != nil {
		return t, nil
	}
	dir := filepath.Join(s.opt.Root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &tenant{name: name, dir: dir, store: s, man: manifest{Version: manifestVersion}, segs: map[uint64]*segment{}}
	s.tenants[name] = t
	return t, nil
}

// TenantStats summarizes one tenant for /tenants and the metrics page.
type TenantStats struct {
	Name     string `json:"name"`
	Segments int    `json:"segments"`
	Events   uint64 `json:"events"`
	Bytes    int64  `json:"bytes"`
	MinTime  uint64 `json:"min_time"`
	MaxTime  uint64 `json:"max_time"`
}

// Tenants lists every tenant's catalog summary, sorted by name.
func (s *Store) Tenants() []TenantStats {
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	out := make([]TenantStats, 0, len(ts))
	for _, t := range ts {
		st := TenantStats{Name: t.name}
		t.mu.Lock()
		st.Segments = len(t.man.Segments)
		for i, si := range t.man.Segments {
			st.Events += si.Events
			st.Bytes += si.Bytes
			if i == 0 || si.MinTime < st.MinTime {
				st.MinTime = si.MinTime
			}
			if si.MaxTime > st.MaxTime {
				st.MaxTime = si.MaxTime
			}
		}
		t.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close releases every open segment handle. Queries in flight keep their
// references and finish normally.
func (s *Store) Close() {
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	for _, t := range ts {
		t.mu.Lock()
		for _, sg := range t.segs {
			sg.mu.Lock()
			if sg.refs == 0 {
				sg.closeLocked()
			}
			sg.mu.Unlock()
		}
		t.mu.Unlock()
	}
}

// swap commits a catalog mutation: the new segment set is written to the
// manifest (the atomic rename is the commit point), added segments join
// the live map, and removed segments retire — their files are unlinked
// once the last in-flight reader releases them. Callers hold t.mu.
//
// Every removeID must still be in the manifest: a swap that "removes" an
// already-removed segment is a stale plan — the caller raced another
// mutation and its output would duplicate events or resurrect expired
// ones. The maintenance mutex makes that impossible for Compact/GC; the
// check here is defense in depth for future callers, failing the commit
// so the caller can abort and unlink its orphan output.
func (t *tenant) swap(add []*segment, removeIDs []uint64) error {
	byID := map[uint64]bool{}
	for _, id := range removeIDs {
		byID[id] = true
	}
	present := map[uint64]bool{}
	for _, si := range t.man.Segments {
		present[si.ID] = true
	}
	for _, id := range removeIDs {
		if !present[id] {
			return fmt.Errorf("store: stale swap: segment %d is no longer in the manifest", id)
		}
	}
	next := t.man.Segments[:0:0]
	for _, si := range t.man.Segments {
		if !byID[si.ID] {
			next = append(next, si)
		}
	}
	for _, sg := range add {
		next = append(next, sg.info)
	}
	sortSegments(next)
	man := t.man
	man.Segments = next
	if err := saveManifest(t.dir, man); err != nil {
		return err
	}
	t.man = man
	for _, sg := range add {
		t.segs[sg.info.ID] = sg
	}
	for _, id := range removeIDs {
		if sg := t.segs[id]; sg != nil {
			delete(t.segs, id)
			sg.retire()
		}
		// The segment left the catalog for good: its cached partials can
		// never be needed again.
		t.store.cache.dropSegment(segRef{tenant: t.name, id: id})
	}
	return nil
}
