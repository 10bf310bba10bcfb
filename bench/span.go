package main

import (
	"encoding/json"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one call the harness made into a layer's public functions:
// name ("layer.what"), start and end in ns since the tracer was made, the
// index of the span that caused it (-1 for an op root) and the round it
// belongs to. Async marks a span that ran on another goroutine while the
// op's own goroutine kept going: it is written out and feeds the *_ms
// metrics, but it is left out of the self-time budget, because most of its
// wall time is waiting and it overlaps the spans that are counted.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Async  bool   `json:"async,omitempty"`
	// AllocBytes is the heap allocated while the span was open, recorded
	// only for spans begun with beginAlloc.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// tracer holds the spans of a traced run in memory. A nil *tracer, or one
// that is switched off, records nothing: every method is then a cheap
// no-op, which is how the untraced run and the untraced comparison rounds
// of a traced run execute the same harness code.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	round int
	spans []span
	stack []int // open spans of the op's own goroutine, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef names an open span; the zero value (from a tracer that is off)
// ends as a no-op.
type spanRef struct {
	t       *tracer
	id      int
	alloc0  uint64
	isAlloc bool
}

func (t *tracer) enabled() bool { return t != nil && t.on }

// startRound switches recording on or off and stamps the spans that follow
// with the round. It is called between rounds, when no span is open.
func (t *tracer) startRound(round int, on bool) {
	t.mu.Lock()
	t.on, t.round = on, round
	t.mu.Unlock()
}

func (t *tracer) open(name string, parent int, async bool) spanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Round: t.round, Async: async,
		Start: int64(time.Since(t.t0))})
	return spanRef{t: t, id: id + 1}
}

// begin opens a span under the innermost open span of the op's goroutine.
// Only that goroutine may call begin.
func (t *tracer) begin(name string) spanRef {
	if !t.enabled() {
		return spanRef{}
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	r := t.open(name, parent, false)
	t.stack = append(t.stack, r.id-1)
	return r
}

// current is the innermost open span of the op's goroutine, for handing
// to beginAsync.
func (t *tracer) current() spanRef {
	if !t.enabled() || len(t.stack) == 0 {
		return spanRef{}
	}
	return spanRef{t: t, id: t.stack[len(t.stack)-1] + 1}
}

// beginAlloc is begin plus the heap bytes allocated inside the span. It is
// used on the spans that feed a *_alloc_mb metric, and costs nothing in an
// untraced round.
func (t *tracer) beginAlloc(name string) spanRef {
	r := t.begin(name)
	if r.t != nil {
		r.isAlloc = true
		r.alloc0 = totalAlloc()
	}
	return r
}

// beginAsync opens a span for work on another goroutine, caused by parent.
func (t *tracer) beginAsync(name string, parent spanRef) spanRef {
	if !t.enabled() {
		return spanRef{}
	}
	return t.open(name, parent.id-1, true)
}

func (r spanRef) end() {
	if r.t == nil {
		return
	}
	now := int64(time.Since(r.t.t0))
	var alloc uint64
	if r.isAlloc {
		alloc = totalAlloc() - r.alloc0
	}
	t := r.t
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[r.id-1]
	sp.End = now
	sp.AllocBytes = alloc
	if !sp.Async {
		if n := len(t.stack); n > 0 && t.stack[n-1] == r.id-1 {
			t.stack = t.stack[:n-1]
		}
	}
}

// totalAlloc reads the cumulative heap allocation without stopping the
// world, unlike runtime.ReadMemStats, so a span inside a timed op can afford
// it. The count lags by what the Ps still hold in their allocation caches:
// a few KiB, against spans that allocate MiB.
func totalAlloc() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// selfTimes returns each span's duration minus the part of it that its
// synchronous children cover. Children may overlap one another, so their
// coverage is the union of their intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && !s.Async {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		at := s.Start
		for _, k := range iv {
			lo, hi := max(k[0], at), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf is the part of a span name before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerShares splits the op time of a traced run between the layers: each
// synchronous span's self time goes to its layer, and the shares are
// fractions of the total, so they sum to 1. The op roots are named
// "harness.op" and "harness.op2"; what they keep for themselves is the
// harness's own share.
func layerShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	var total float64
	byLayer := map[string]float64{}
	for i, s := range spans {
		if s.Async {
			continue
		}
		byLayer[layerOf(s.Name)] += float64(self[i])
		total += float64(self[i])
	}
	for k := range byLayer {
		byLayer[k] /= total
	}
	return byLayer
}

// perRound sums, round by round, the value fn gives for every span called
// name, and returns the sums in round order.
func perRound(spans []span, name string, fn func(*span) float64) []float64 {
	sums := map[int]float64{}
	for i := range spans {
		if spans[i].Name == name {
			sums[spans[i].Round] += fn(&spans[i])
		}
	}
	rounds := make([]int, 0, len(sums))
	for r := range sums {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = sums[r]
	}
	return out
}

// roundMedian is the median over rounds of perRound.
func roundMedian(spans []span, name string, fn func(*span) float64) float64 {
	return median(perRound(spans, name, fn))
}

func spanMs(s *span) float64      { return float64(s.End-s.Start) / 1e6 }
func spanAllocMB(s *span) float64 { return float64(s.AllocBytes) / (1 << 20) }

// writeSpans writes the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
