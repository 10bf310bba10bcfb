package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"sync"
	"time"

	"k42trace/internal/analysis"
	"k42trace/internal/event"
	"k42trace/internal/ksim"
	"k42trace/internal/stream"
)

// ErrNoTenant reports a query against a tenant that does not exist.
var ErrNoTenant = errors.New("store: no such tenant")

// Aggs lists the supported agg= values.
var Aggs = []string{"events", "overview", "lockstat", "profile", "timebreak", "memprofile"}

// Params is one query: a time range, optional predicates, and the
// aggregation to run over the matching events.
type Params struct {
	Tenant string
	// From and To bound event times as [From, To); To 0 means unbounded.
	From, To uint64
	// Major/Minor restrict to one event class (Minor requires Major).
	HasMajor bool
	Major    event.Major
	HasMinor bool
	Minor    uint16
	// Pid restricts to events attributed to one process — attribution is
	// the replayed scheduling state, same as the analysis walker: an event
	// belongs to the pid scheduled on its CPU when it was logged.
	HasPid bool
	Pid    uint64
	// Agg is one of Aggs ("" = "events"). timebreak requires Pid.
	Agg string
	// Limit caps the events listing (0 = unlimited); aggregations ignore
	// it. With agg=events it is the page size: a query returning Limit
	// events carries a NextCursor for the rest.
	Limit int
	// Cursor resumes an agg=events listing where a previous page stopped
	// (the page's NextCursor / X-Next-Cursor token). "" starts at the top.
	Cursor string
	// NoPrune disables index pruning and the segment result cache (full
	// scan): the bench baseline and the fuzz invariant that pruned ==
	// unpruned == cached.
	NoPrune bool
}

// listing reports whether p asks for the events themselves rather than an
// aggregation over them.
func (p *Params) listing() bool { return p.Agg == "" || p.Agg == "events" }

// effTo returns the exclusive upper bound with 0 mapped to +inf.
func (p *Params) effTo() uint64 {
	if p.To == 0 {
		return ^uint64(0)
	}
	return p.To
}

// ParseParams parses query parameters (tenant, from, to, major, minor,
// pid, agg, limit, noprune). Unknown aggs, minors without a major, and
// malformed numbers are errors — the HTTP 400 path.
func ParseParams(v url.Values) (Params, error) {
	var p Params
	p.Tenant = v.Get("tenant")
	if p.Tenant == "" {
		return p, fmt.Errorf("missing tenant parameter")
	}
	if !ValidTenant(p.Tenant) {
		return p, fmt.Errorf("invalid tenant %q", p.Tenant)
	}
	var err error
	if s := v.Get("from"); s != "" {
		if p.From, err = strconv.ParseUint(s, 0, 64); err != nil {
			return p, fmt.Errorf("bad from %q", s)
		}
	}
	if s := v.Get("to"); s != "" {
		if p.To, err = strconv.ParseUint(s, 0, 64); err != nil {
			return p, fmt.Errorf("bad to %q", s)
		}
		if p.To != 0 && p.To <= p.From {
			return p, fmt.Errorf("empty time range [%d, %d)", p.From, p.To)
		}
	}
	if s := v.Get("major"); s != "" {
		m, ok := event.ParseMajor(s)
		if !ok {
			return p, fmt.Errorf("unknown major %q", s)
		}
		p.HasMajor, p.Major = true, m
	}
	if s := v.Get("minor"); s != "" {
		if !p.HasMajor {
			return p, fmt.Errorf("minor requires major")
		}
		n, err := strconv.ParseUint(s, 0, 16)
		if err != nil {
			return p, fmt.Errorf("bad minor %q", s)
		}
		p.HasMinor, p.Minor = true, uint16(n)
	}
	if s := v.Get("pid"); s != "" {
		if p.Pid, err = strconv.ParseUint(s, 0, 64); err != nil {
			return p, fmt.Errorf("bad pid %q", s)
		}
		p.HasPid = true
	}
	p.Agg = v.Get("agg")
	switch p.Agg {
	case "", "events":
		p.Agg = "events"
	case "overview", "lockstat", "profile", "memprofile":
	case "timebreak":
		if !p.HasPid {
			return p, fmt.Errorf("agg=timebreak requires pid")
		}
	default:
		return p, fmt.Errorf("unknown agg %q", p.Agg)
	}
	if s := v.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad limit %q", s)
		}
		p.Limit = n
	}
	if s := v.Get("cursor"); s != "" {
		if p.Agg != "events" {
			return p, fmt.Errorf("cursor requires agg=events")
		}
		if _, err := decodeCursor(s); err != nil {
			return p, fmt.Errorf("bad cursor %q: %v", s, err)
		}
		p.Cursor = s
	}
	if s := v.Get("noprune"); s != "" && s != "0" && s != "false" {
		p.NoPrune = true
	}
	return p, nil
}

// values renders the params back to url.Values (the round-trip the tests
// query through).
func (p Params) values() url.Values {
	v := url.Values{}
	v.Set("tenant", p.Tenant)
	if p.From != 0 {
		v.Set("from", strconv.FormatUint(p.From, 10))
	}
	if p.To != 0 {
		v.Set("to", strconv.FormatUint(p.To, 10))
	}
	if p.HasMajor {
		v.Set("major", strconv.Itoa(int(p.Major)))
	}
	if p.HasMinor {
		v.Set("minor", strconv.Itoa(int(p.Minor)))
	}
	if p.HasPid {
		v.Set("pid", strconv.FormatUint(p.Pid, 10))
	}
	if p.Agg != "" {
		v.Set("agg", p.Agg)
	}
	if p.Limit != 0 {
		v.Set("limit", strconv.Itoa(p.Limit))
	}
	if p.Cursor != "" {
		v.Set("cursor", p.Cursor)
	}
	if p.NoPrune {
		v.Set("noprune", "1")
	}
	return v
}

// Result is the matching event set plus scan accounting, and — when the
// merge pulled nothing — the runs the set was merged from, by CPU.
type Result struct {
	Params Params
	// Hz is the clock rate used for rendering (the tenant's segments all
	// share it within one upload; mixed-upload tenants use the first
	// scanned segment's rate).
	Hz uint64
	// Events is the answer in (Time, CPU) merge order, a slice of the
	// query's own, and the one copy of the event structs the query made
	// that outlives it: a whole-matching block nobody keeps is decoded
	// under the merge and copied from its scratch straight into here.
	// Payloads are capped at their length and may be shared with the
	// segment cache: overwrite or append to the events freely, never write
	// through Data — after Format: an aggregation's per-CPU walks read
	// byCPU, which holds the same events.
	Events []event.Event
	// byCPU, for an aggregation whose merge read only runs in memory (it
	// pulled no chain), are those runs grouped by CPU as stream.MergeRuns
	// returns them, a CPU out of time order as the one run the merge
	// sorted it into. Format walks them in place of per-CPU positions of
	// Events.
	byCPU [][]event.Event

	// NextCursor is the token for the page after this one ("" = listing
	// complete). Set only for agg=events with Limit > 0.
	NextCursor string

	SegsTotal     int
	SegsScanned   int
	SegsCached    int // of SegsScanned, served from the segment cache
	SegsPruned    int
	BlocksScanned int
	BlocksPruned  int
	Elapsed       time.Duration
}

// Query runs one query: segments overlapping the time range are pinned
// under the catalog lock, then scanned in parallel outside it — each
// scan decodes only the blocks whose index summaries survive the
// predicates — and stay pinned until the merge has drawn its last block.
// Events return in global (Time, CPU) merge order, the same order
// stream.ReadAll produces.
func (s *Store) Query(p Params) (*Result, error) {
	return s.QueryCtx(context.Background(), p)
}

// QueryCtx is Query under a context: admission control queues or refuses
// the query here (ErrOverload — the HTTP 429 path), and ctx cancellation
// abandons a queued wait.
func (s *Store) QueryCtx(ctx context.Context, p Params) (*Result, error) {
	release, err := s.adm.acquire(ctx, p.Tenant)
	if err != nil {
		return nil, err
	}
	defer release()
	start := time.Now()
	res, err := s.query(p)
	dur := time.Since(start)
	if res == nil {
		res = &Result{Params: p}
	}
	res.Elapsed = dur
	s.metrics.query(p.Tenant, dur, res.BlocksScanned, res.BlocksPruned, res.SegsPruned, err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Store) query(p Params) (*Result, error) {
	t := s.getTenant(p.Tenant)
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoTenant, p.Tenant)
	}
	res := &Result{Params: p}

	// A cursor resumes mid-listing: everything before its position is
	// already emitted, so raise the scan's lower bound to the cursor time
	// — index pruning and the segment cache then skip the emitted prefix.
	// Events exactly at the cursor time stay in scope; the merge drops the
	// already-emitted ones as it meets them, and they do not count towards
	// the page. A page stops the merge at its Limit-th event and one more,
	// which says whether anything remains. Aggregations take every match.
	var cur *cursor
	var page stream.Cap
	scan := p
	if p.Cursor != "" {
		c, err := decodeCursor(p.Cursor)
		if err != nil {
			return nil, fmt.Errorf("store: %v", err)
		}
		cur, page.Head = &c, c.head()
		if c.time > scan.From {
			scan.From = c.time
		}
	}
	if p.listing() && p.Limit > 0 {
		page.Max = p.Limit + 1
	}
	to := scan.effTo()

	// Pin the overlapping segments. The catalog lock makes the pin atomic
	// against swap: a segment is either pinned before it retires (readers
	// finish; files outlive them) or already gone from the catalog.
	t.mu.Lock()
	var pinned []*segment
	for i := range t.man.Segments {
		si := &t.man.Segments[i]
		if !scan.NoPrune && (si.MaxTime < scan.From || si.MinTime >= to) {
			res.SegsPruned++
			continue
		}
		if sg := t.segs[si.ID]; sg != nil {
			sg.acquire()
			pinned = append(pinned, sg)
		}
	}
	res.SegsTotal = len(t.man.Segments)
	res.SegsScanned = len(pinned)
	t.mu.Unlock()
	defer func() {
		for _, sg := range pinned {
			sg.release()
		}
	}()
	if len(pinned) == 0 {
		return res, nil
	}
	res.Hz = pinned[0].info.ClockHz

	workers := s.opt.Workers
	type segResult struct {
		runs            [][]event.Event // each cloned block's matches, in file order
		scanned, pruned int
		err             error
	}
	parts := make([]segResult, len(pinned))

	// Serve what the cache already holds; only the misses scan. NoPrune
	// bypasses the cache — it is the transparency baseline the cached
	// path is checked against.
	useCache := s.cache.enabled() && !scan.NoPrune
	var keys []cacheKey
	if useCache {
		keys = make([]cacheKey, len(pinned))
	}
	var toScan []int
	hits := 0
	for i, sg := range pinned {
		if useCache {
			keys[i] = cacheKey{
				seg: segRef{tenant: p.Tenant, id: sg.info.ID},
				fp:  fingerprintFor(&scan, &sg.info),
			}
			if runs, ok := s.cache.get(keys[i]); ok {
				parts[i].runs = runs
				hits++
				continue
			}
		}
		toScan = append(toScan, i)
	}
	res.SegsCached = hits
	if useCache {
		s.metrics.cacheScan(p.Tenant, hits, len(toScan))
	}

	// The runs of a query that neither fills the cache nor is the NoPrune
	// baseline are nobody's to keep: the scan leaves its whole-matching
	// blocks, on the CPUs whose chains the index shows in time order, for
	// the merge to pull (pull.go).
	ps := pullSet{s: s, p: scan, to: to}
	if !useCache && !scan.NoPrune {
		if err := ps.plan(pinned, workers); err != nil {
			return res, err
		}
	}

	// Scan worker w takes every nw-th miss, with one scratch off the
	// store's free list: a query on a warm store allocates its answer and
	// nothing to scan into. Worker 0 runs on the query's own goroutine.
	nw := scanParallelism(workers, len(toScan))
	pull, left := ps.cpus, ps.left
	scanWorker := func(w int) {
		sc := s.scratch.Get()
		defer s.scratch.Put(sc)
		for j := w; j < len(toScan); j += nw {
			i := toScan[j]
			pr := &parts[i]
			var pulled []pulledBlock
			pr.runs, pulled, pr.scanned, pr.pruned, pr.err = scanSegment(pinned[i], scan, workers, sc, pull)
			if left != nil {
				left[i] = pulled
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scanWorker(w)
		}()
	}
	scanWorker(0)
	wg.Wait()

	// Pinned segments are in (MinTime, ID) order and each part keeps its
	// blocks in file order, so the stable (Time, CPU) order over the runs'
	// concatenation reproduces the ReadAll merge order.
	for i := range parts {
		if parts[i].err != nil {
			return res, parts[i].err
		}
		res.BlocksScanned += parts[i].scanned
		res.BlocksPruned += parts[i].pruned
		ps.add(i, parts[i].runs)
	}
	if useCache {
		for _, i := range toScan {
			s.cache.put(keys[i], parts[i].runs)
		}
	}
	// Cached runs are shared and read-only: the merge copies their events
	// into this query's own slice, and the payloads stay shared. The pinned
	// segments stay pinned until the merge has pulled its last block.
	evs, byCPU, err := ps.merge(page)
	if err != nil {
		return res, err
	}
	res.Events, res.byCPU = evs, byCPU
	// A page of exactly Limit events with more behind it carries the token
	// for the next page.
	if page.Max > 0 && len(evs) > p.Limit {
		res.Events = evs[:p.Limit]
		res.NextCursor = encodeCursor(nextCursor(res.Events, cur))
	}
	return res, nil
}

func scanParallelism(workers, n int) int {
	if workers <= 0 {
		workers = 8
	}
	return max(1, min(workers, n))
}

// scanSegment scans one pinned segment: blocks whose summaries cannot
// match are skipped, survivors are decoded into sc and filtered exactly.
// The result is one run per block that matched, in file order, and shares
// nothing with sc or the segment: the matches of each block are cloned
// into an event slice and a payload slab of exactly their size, so an
// answer that lives on in the cache or in a Result holds what it matched
// and no more — a narrow answer never pins a block.
//
// pull, when the query's runs are nobody's to keep, says by CPU whose
// whole-matching blocks are left undecoded for the merge: they are counted
// as scanned and returned in pulled, each with its place among the runs.
func scanSegment(sg *segment, p Params, workers int, sc *stream.BlockScratch, pull []bool) (runs [][]event.Event, pulled []pulledBlock, scanned, pruned int, err error) {
	rd, fi, err := sg.open(workers)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	// The index knows every block's event count: size the decode scratch
	// once for the segment, so that the decodes below never grow it.
	need := 0
	for k := range fi.Blocks {
		need = max(need, int(fi.Blocks[k].Events))
	}
	if cap(sc.Events) < need {
		sc.Events = make([]event.Event, 0, need)
	}
	to := p.effTo()
	for k := range fi.Blocks {
		bs := &fi.Blocks[k]
		if !p.NoPrune && !blockMayMatch(bs, p, to) {
			pruned++
			continue
		}
		scanned++
		if bs.CPU < len(pull) && pull[bs.CPU] && wholeMatch(bs, &p, to) {
			pulled = append(pulled, pulledBlock{at: len(runs), rd: rd, k: k, bs: bs})
			continue
		}
		b, err := rd.DecodeBlockInto(k, sc)
		if err != nil {
			return nil, nil, scanned, pruned, err
		}
		if m := keepMatching(b.Events, bs.EntryPid, p, to); len(m) > 0 {
			runs = append(runs, event.Clone(m))
		}
	}
	return runs, pulled, scanned, pruned, nil
}

// blockMayMatch is the pruning predicate: every check is conservative
// (no false negatives), so pruning never changes results.
func blockMayMatch(bs *stream.BlockSummary, p Params, to uint64) bool {
	if !bs.Overlaps(p.From, to) {
		return false
	}
	if p.HasMajor && bs.MajorMask&p.Major.Bit() == 0 {
		return false
	}
	if p.HasMinor && !bs.MinorBloom.MayContain(stream.MinorKey(p.Major, p.Minor)) {
		return false
	}
	if p.HasPid && !bs.PidBloom.MayContain(p.Pid) {
		return false
	}
	return true
}

// keepMatching applies the exact filter to one block's events in place:
// the matches move to the front of evs, in order, and are returned. The
// pid carry starts at the block's recorded entry pid; attribution follows
// the analysis walker: an event belongs to the pid scheduled before it is
// applied, so a context switch itself is attributed to the switched-from
// process.
func keepMatching(evs []event.Event, entryPid uint64, p Params, to uint64) []event.Event {
	cur := entryPid
	n := 0
	for i := range evs {
		e := &evs[i]
		match := matchEvent(e, cur, p, to)
		if e.Major() == event.MajorSched && e.Minor() == ksim.EvSchedSwitch && len(e.Data) >= 2 {
			cur = e.Data[1]
		}
		if match {
			evs[n] = *e
			n++
		}
	}
	return evs[:n]
}

func matchEvent(e *event.Event, curPid uint64, p Params, to uint64) bool {
	if e.Time < p.From || e.Time >= to {
		return false
	}
	if p.HasMajor && e.Major() != p.Major {
		return false
	}
	if p.HasMinor && e.Minor() != p.Minor {
		return false
	}
	if p.HasPid && curPid != p.Pid {
		return false
	}
	return true
}

// MatchStream applies the query filter to an already-merged event stream
// (stream.ReadAll output): the offline baseline the golden corpus and the
// fuzz invariant compare the store against. Pid attribution replays
// per-CPU scheduling state from pid 0, exactly as ingest's carry does.
func MatchStream(evs []event.Event, p Params) []event.Event {
	to := p.effTo()
	cur := map[int]uint64{}
	var out []event.Event
	for i := range evs {
		e := &evs[i]
		if matchEvent(e, cur[e.CPU], p, to) {
			out = append(out, *e)
		}
		if e.Major() == event.MajorSched && e.Minor() == ksim.EvSchedSwitch && len(e.Data) >= 2 {
			cur[e.CPU] = e.Data[1]
		}
	}
	return out
}

// Format renders the result: the events listing, or one of the five
// aggregated reports, built from the matching events with the same
// analysis code every offline tool uses. A listing names each event from
// the registry alone, so it builds no naming context. An aggregation whose
// merge pulled nothing walks each CPU's runs where they lie; one that
// pulled views each CPU's share of Events by its positions.
func (r *Result) Format(w io.Writer, workers int) error {
	if r.Params.listing() {
		_, err := analysis.List(w, r.Events, r.Hz, event.Default, analysis.ListOptions{ShowControl: true, Limit: r.Params.Limit})
		return err
	}
	var tr *analysis.Trace
	if r.byCPU != nil {
		tr = analysis.BuildRuns(r.Events, r.byCPU, r.Hz, event.Default)
	} else {
		tr = analysis.Build(r.Events, r.Hz, event.Default)
	}
	switch r.Params.Agg {
	case "overview":
		return analysis.FormatOverview(w, tr.OverviewParallel(workers))
	case "lockstat":
		return tr.LockStatParallel(workers).Format(w, 0)
	case "profile":
		pid := ^uint64(0)
		if r.Params.HasPid {
			pid = r.Params.Pid
		}
		return tr.ProfileParallel(pid, workers).Format(w, 0)
	case "timebreak":
		return tr.TimeBreakParallel(r.Params.Pid, workers).Format(w)
	case "memprofile":
		return tr.MemProfileParallel(workers).Format(w, 0)
	}
	return fmt.Errorf("store: unknown agg %q", r.Params.Agg)
}

func isGone(err error) bool { return errors.Is(err, ErrGone) }
