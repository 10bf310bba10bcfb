package main

import (
	"bytes"
	"fmt"
	"maps"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"k42trace/internal/event"
	"k42trace/internal/ksim"
	"k42trace/internal/store"
	"k42trace/internal/stream"
)

// storeQuery is the analyst's latency. One SDET trace is ingested into a
// tenant split into 16 segments. The primary op asks 16 narrow questions of
// a store handle whose cache holds about a quarter of one round's answers,
// in a fixed cyclic order, so every lookup misses; the secondary asks five
// whole-range aggregations of a second handle whose cache holds everything,
// so every lookup hits. A scan-path change and a cache change separate.
type storeQuery struct {
	root       string
	cold, warm *store.Store
	queries    []sqQuery
	warmAggs   []sqQuery

	got2 [5]uint32

	// traced-run accumulators, primary op
	queriesRun, blocksScanned, blocksPruned int64
	segsScanned, segsPruned, segsCached     int64
	eventsOut                               int64
	// secondary op
	warmScanned, warmCached int64
}

// sqQuery is one question with the answer the oracle gives.
type sqQuery struct {
	kind   string // narrow, page, minor, or the aggregation's name
	values url.Values
	events int    // matching events, by store.MatchStream over ReadAll
	crc    uint32 // of the formatted answer (for page: the unpaginated listing)
}

const (
	sqTenant    = "sdet"
	sqPageLimit = "100" // a busy process logs a few hundred events in a quarter of the run
	sqCycles    = 2     // passes over the 16 questions in one primary op, to reach 30 ms
)

// queryValues builds the parameters of one store query the way an HTTP
// client would send them, from key, value pairs.
func queryValues(tenant string, kv ...string) url.Values {
	v := url.Values{"tenant": {tenant}}
	for i := 0; i+1 < len(kv); i += 2 {
		v.Set(kv[i], kv[i+1])
	}
	return v
}

// busiestPidIn is the process that logged the most events in [from, to),
// attributing events the way the store does: to the process last switched
// to on the event's CPU. (Taking the second or third busiest by the seed
// moved the primary op's allocation by 3 %.)
func busiestPidIn(evs []event.Event, from, to uint64) (uint64, error) {
	cur := map[int]uint64{}
	count := map[uint64]int{}
	for i := range evs {
		ev := &evs[i]
		if pid := cur[ev.CPU]; pid != 0 && ev.Time >= from && ev.Time < to {
			count[pid]++
		}
		if ev.Major() == event.MajorSched && ev.Minor() == ksim.EvSchedSwitch && len(ev.Data) >= 2 {
			cur[ev.CPU] = ev.Data[1]
		}
	}
	pids := make([]uint64, 0, len(count))
	for pid := range count {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool {
		if count[pids[i]] != count[pids[j]] {
			return count[pids[i]] > count[pids[j]]
		}
		return pids[i] < pids[j]
	})
	if len(pids) == 0 {
		return 0, fmt.Errorf("no process logged in [%d, %d)", from, to)
	}
	return pids[0], nil
}

func (w *storeQuery) setup(e *env) error {
	data, err := sdetTrace(e, false, 2048)
	if err != nil {
		return err
	}
	rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	all, _, err := rd.ReadAll()
	if err != nil {
		return err
	}
	if len(all) == 0 {
		return fmt.Errorf("empty trace")
	}
	lo, hi := all[0].Time, all[len(all)-1].Time
	pid, err := busiestPidIn(all, lo, hi+1)
	if err != nil {
		return err
	}

	// Ingest through a throwaway handle, then open the two the ops use.
	w.root = filepath.Join(e.dir, "sq-store")
	ing, err := store.Open(store.Options{Root: w.root, SegmentSpan: (hi-lo)/16 + 1})
	if err != nil {
		return err
	}
	res, err := ing.Ingest(sqTenant, bytes.NewReader(data), int64(len(data)))
	ing.Close()
	if err != nil {
		return err
	}
	if len(res.Segments) < 8 {
		return fmt.Errorf("ingest made %d segments, want about 16", len(res.Segments))
	}

	// The questions. The seed shifts every window by the same small step,
	// at most 1/4096 of the range: the events at each window's edges change,
	// the blocks the windows reach into all but never do. A shift of up to a
	// whole window moved the primary op's allocation by 4 % between seeds,
	// and one of up to 1/256 still by 2.4 %, a block's worth at a time.
	span := hi - lo
	usable := span - span/16
	shift := lo + uint64(e.seed)*2654435761%(span/4096)
	bounds := func(slot, slots uint64) (from, to uint64) {
		from = shift + slot*(usable/slots)
		return from, from + usable/slots
	}
	window := func(slot, slots uint64) (string, string) {
		from, to := bounds(slot, slots)
		return strconv.FormatUint(from, 10), strconv.FormatUint(to, 10)
	}
	q := func(kind string, kv ...string) sqQuery {
		return sqQuery{kind: kind, values: queryValues(sqTenant, kv...)}
	}
	var narrow, page, minor []sqQuery
	for k := uint64(0); k < 8; k++ {
		from, to := window(2*k, 16)
		narrow = append(narrow, q("narrow", "from", from, "to", to, "major", "sched"))
	}
	for k := uint64(0); k < 4; k++ {
		// SDET processes are short-lived, so each quarter asks about a
		// process that is busy in it.
		from, to := window(k, 4)
		lo4, hi4 := bounds(k, 4)
		inWindow, err := busiestPidIn(all, lo4, hi4)
		if err != nil {
			return err
		}
		page = append(page, q("page", "from", from, "to", to,
			"pid", strconv.FormatUint(inWindow, 10), "limit", sqPageLimit))
		from, to = window(4*k+1, 16)
		minor = append(minor, q("minor", "from", from, "to", to, "major", "syscall",
			"minor", strconv.Itoa(int(ksim.EvSyscallEnter))))
	}
	w.queries = w.queries[:0]
	for k := 0; k < 4; k++ {
		w.queries = append(w.queries, narrow[2*k], page[k], narrow[2*k+1], minor[k])
	}
	w.warmAggs = []sqQuery{
		q("overview", "agg", "overview"),
		q("lockstat", "agg", "lockstat"),
		q("profile", "agg", "profile"),
		q("memprofile", "agg", "memprofile"),
		q("timebreak", "agg", "timebreak", "pid", strconv.FormatUint(pid, 10)),
	}

	// The oracle: counts from the offline matcher over the whole trace,
	// CRCs from an unpaginated, uncached query. The answers' size also
	// sizes the cold cache.
	sizer, err := store.Open(store.Options{Root: w.root})
	if err != nil {
		return err
	}
	defer sizer.Close()
	var answerBytes int64
	for i := range w.queries {
		qu := &w.queries[i]
		v := maps.Clone(qu.values)
		v.Del("limit")
		p, err := store.ParseParams(v)
		if err != nil {
			return err
		}
		qu.events = len(store.MatchStream(all, p))
		r, err := sizer.Query(p)
		if err != nil {
			return err
		}
		var c crcWriter
		if err := r.Format(&c, 0); err != nil {
			return err
		}
		qu.crc = c.crc
		for i := range r.Events {
			answerBytes += 56 + 8*int64(len(r.Events[i].Data))
		}
	}
	if answerBytes == 0 {
		return fmt.Errorf("none of the %d questions matches an event", len(w.queries))
	}
	if w.cold, err = store.Open(store.Options{Root: w.root, CacheBytes: answerBytes / 4}); err != nil {
		return err
	}
	if w.warm, err = store.Open(store.Options{Root: w.root, CacheBytes: 256 << 20}); err != nil {
		return err
	}
	// The oracle round of the secondary op, which is also what warms it.
	_, s := w.ops()
	if err := s.run(e); err != nil {
		return err
	}
	for i := range w.warmAggs {
		w.warmAggs[i].crc = w.got2[i]
	}
	return nil
}

func (w *storeQuery) teardown() {
	if w.cold != nil {
		w.cold.Close()
		w.warm.Close()
		w.cold, w.warm = nil, nil
	}
	os.RemoveAll(w.root)
}

// ask runs one query on st and formats the answer into c.
func (w *storeQuery) ask(e *env, st *store.Store, v url.Values, name string, c *crcWriter) (*store.Result, error) {
	sp := e.tr.begin("store.parse_params")
	p, err := store.ParseParams(v)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = e.tr.beginAlloc(name)
	r, err := st.Query(p)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = e.tr.begin("store.format")
	err = r.Format(c, 0)
	sp.end()
	return r, err
}

func (w *storeQuery) ops() (op, op) {
	primary := op{
		run: func(e *env) error {
			for i := 0; i < sqCycles*len(w.queries); i++ {
				qu := &w.queries[i%len(w.queries)]
				var c crcWriter
				events, v := 0, qu.values
				for {
					r, err := w.ask(e, w.cold, v, "store.query_"+qu.kind, &c)
					if err != nil {
						return err
					}
					// A question asked for the first time in a round must miss.
					// The later pages of a cursor walk may hit: a resumed scan
					// keys the segments past the cursor exactly as the page
					// before did, which is what the cursor design is for.
					if r.SegsCached != 0 && v.Get("cursor") == "" {
						return fmt.Errorf("%s query %v: %d of %d segments came from the cache, want 0",
							qu.kind, v, r.SegsCached, r.SegsScanned)
					}
					events += len(r.Events)
					if e.tr.enabled() {
						w.queriesRun++
						w.blocksScanned += int64(r.BlocksScanned)
						w.blocksPruned += int64(r.BlocksPruned)
						w.segsScanned += int64(r.SegsScanned)
						w.segsPruned += int64(r.SegsPruned)
						w.segsCached += int64(r.SegsCached)
						w.eventsOut += int64(len(r.Events))
					}
					if r.NextCursor == "" {
						break
					}
					v = maps.Clone(qu.values)
					v.Set("cursor", r.NextCursor)
				}
				if events != qu.events || c.crc != qu.crc {
					return fmt.Errorf("%s query %v: %d events, CRC %08x; oracle has %d, %08x",
						qu.kind, qu.values, events, c.crc, qu.events, qu.crc)
				}
			}
			return nil
		},
	}
	secondary := op{
		run: func(e *env) error {
			for i := range w.warmAggs {
				qu := &w.warmAggs[i]
				sp := e.tr.begin("store.warm_" + qu.kind)
				var c crcWriter
				r, err := w.ask(e, w.warm, qu.values, "store.query_warm", &c)
				sp.end()
				if err != nil {
					return err
				}
				w.got2[i] = c.crc
				if e.tr.enabled() {
					w.warmScanned += int64(r.SegsScanned)
					w.warmCached += int64(r.SegsCached)
				}
				if qu.crc != 0 && (r.SegsCached != r.SegsScanned || c.crc != qu.crc) {
					return fmt.Errorf("warm %s: %d of %d segments cached, CRC %08x, oracle %08x",
						qu.kind, r.SegsCached, r.SegsScanned, c.crc, qu.crc)
				}
			}
			return nil
		},
	}
	return primary, secondary
}

func (w *storeQuery) probes(e *env) error { return nil }

func (w *storeQuery) layers(e *env, spans []span, m metrics) {
	each := func(name string) []float64 {
		var out []float64
		for i := range spans {
			if spans[i].Name == name {
				out = append(out, spanMs(&spans[i]))
			}
		}
		return out
	}
	narrow := each("store.query_narrow")
	m.set("store.query_narrow_ms_p50", median(narrow))
	m.set("store.query_narrow_ms_p90", percentile(narrow, 90))
	m.set("store.query_page_ms_p50", median(each("store.query_page")))
	m.set("store.query_minor_ms_p50", median(each("store.query_minor")))
	var alloc float64
	for _, kind := range []string{"narrow", "page", "minor"} {
		alloc += roundMedian(spans, "store.query_"+kind, spanAllocMB)
	}
	m.set("store.query_alloc_mb", alloc)
	m.set("store.parse_params_us", median(each("store.parse_params"))*1e3)
	if w.queriesRun > 0 {
		m.set("store.blocks_scanned_per_query", float64(w.blocksScanned)/float64(w.queriesRun))
		m.set("store.blocks_pruned_frac", float64(w.blocksPruned)/float64(w.blocksPruned+w.blocksScanned))
		m.set("store.segs_pruned_frac", float64(w.segsPruned)/float64(w.segsPruned+w.segsScanned))
		m.set("store.events_per_block_scanned", float64(w.eventsOut)/float64(w.blocksScanned))
		m.set("store.cache_hit_frac_cold", float64(w.segsCached)/float64(w.segsScanned))
	}
	// The share of the primary op spent rendering: format spans under a
	// primary root over the primary roots themselves.
	var format, ops float64
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == "harness.op":
			ops += spanMs(s)
		case s.Name == "store.format" && s.Parent >= 0 && spans[s.Parent].Name == "harness.op":
			format += spanMs(s)
		}
	}
	if ops > 0 {
		m.set("store.format_frac", format/ops)
	}
	for _, agg := range []string{"overview", "lockstat", "profile", "memprofile", "timebreak"} {
		m.set("store.warm_"+agg+"_ms", median(each("store.warm_"+agg)))
	}
	if w.warmScanned > 0 {
		m.set("store.cache_hit_frac_warm", float64(w.warmCached)/float64(w.warmScanned))
	}
}
