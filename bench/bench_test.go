package main

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vals := []float64{40, 10, 30, 20, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {12.5, 15},
	} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", vals, c.p, got, c.want)
		}
	}
	if vals[0] != 40 {
		t.Error("percentile reordered its argument")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "harness.op", Start: 0, End: 100, Parent: -1},
		{Name: "core.log", Start: 10, End: 40, Parent: 0},
		{Name: "stream.tail", Start: 30, End: 60, Parent: 0},             // overlaps its sibling: 10..60 is covered once
		{Name: "store.q", Start: 90, End: 120, Parent: 0},                // sticks out of the parent: clipped to 90..100
		{Name: "relay.send", Start: 0, End: 100, Parent: 0, Async: true}, // async: covers nothing
		{Name: "core.inner", Start: 15, End: 20, Parent: 1},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 100, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	shares := layerShares(spans)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
	if _, ok := shares["relay"]; ok {
		t.Error("an async span took a share of the budget")
	}
	if want := 30.0 / 130; math.Abs(shares["core"]-want) > 1e-9 {
		t.Errorf("core share = %v, want %v", shares["core"], want)
	}
}

// TestGuard holds the op accounting to ISSUE.md: every step started is one
// attempt, a step that hangs is a failed one, and what stands behind a hang
// is never attempted.
func TestGuard(t *testing.T) {
	step := func(err error) func() (sample, error) {
		return func() (sample, error) { return sample{ms: 1}, err }
	}
	boom := errors.New("boom")
	results, hung := guard(step(boom), step(nil))
	if hung || len(results) != 2 || results[0].err != boom || results[1].err != nil || results[1].ms != 1 {
		t.Errorf("a failed step then a good one: %+v, hung %v", results, hung)
	}

	defer func(d time.Duration) { roundLimit = d }(roundLimit)
	roundLimit = 20 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	results, hung = guard(step(nil), func() (sample, error) { <-release; return sample{}, nil }, step(nil))
	if !hung || len(results) != 2 || results[0].err != nil || results[1].err == nil {
		t.Errorf("a hang in the second of three steps: %+v, hung %v", results, hung)
	}
}

func TestParseMetrics(t *testing.T) {
	var out strings.Builder
	out.WriteString("workload log_hot  seed 1  rounds 63\nattempted 126 ops\n")
	printMetrics(&out, endToEndDefs[:2], metrics{"setup_s": {2.0625, "s"}, "op_alloc_mb": {215.0013, "MiB"}})
	out.WriteString(`{"correct":true}` + "\n")
	got := parseMetrics(out.String())
	if len(got) != 2 || got["setup_s"] != 2.0625 || got["op_alloc_mb"] != 215.0013 {
		t.Errorf("parseMetrics read back %v", got)
	}
}

func TestCRCWriter(t *testing.T) {
	var w crcWriter
	w.Write([]byte("lock"))
	w.Write([]byte("stat"))
	if want := crc32.ChecksumIEEE([]byte("lockstat")); w.crc != want || w.n != 8 {
		t.Errorf("crcWriter = %08x over %d bytes, want %08x over 8", w.crc, w.n, want)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the harness: the same
// workloads, the same metrics, units and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, b.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []entry, want []metricDef, gated bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the harness %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || (gated && g.Bound != d.bound) {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the harness", kind, i, g, d)
			}
		}
	}
	same("end-to-end", b.EndToEnd, endToEndDefs, true)
	same("per-layer", b.PerLayer, perLayerDefs, false) // BENCHMARK.json gives these no bound
}

// TestSmoke runs every workload traced, at reduced size, for one warm-up
// and two rounds. A refactor that breaks the benchmark's calls into a layer
// turns tier-1 red here, not the gate silently.
func TestSmoke(t *testing.T) {
	// Per-layer metrics that are rightly 0 or below on a healthy run.
	mayBeZero := map[string]bool{
		"core.cas_retries_per_mevent": true, // one producer: nothing to retry against
		"core.block_waits_per_mevent": true, // the drain may simply keep up
		"live.disconnects":            true,
		"harness.steal_ticks":         true,
		"harness.trace_overhead_frac": true,
		"harness.self_frac":           true,
	}
	positive := map[string]bool{}
	for _, spec := range workloads {
		dir := t.TempDir()
		e := &env{seed: 7, small: true, dir: filepath.Join(dir, "scratch"), out: dir}
		res, err := run(spec, e, 2, true)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if !res.correct() || res.attempted != 5 { // two ops a round, and the probes of the traced one
			t.Fatalf("%s: %d of %d ops failed: %v", spec.name, res.failed, res.attempted, res.firstErr)
		}
		for _, d := range endToEndDefs {
			m, ok := res.endToEnd[d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive %s", spec.name, d.name, m, ok, d.unit)
			}
		}
		for _, d := range timingDefs {
			if m := res.perLayer[d.name]; m != res.timing[d.name] || !(m.Value > 0) {
				t.Errorf("%s: %s = %+v per layer, %+v as printed, want one positive value", spec.name, d.name, m, res.timing[d.name])
			}
		}
		if len(res.perLayer) != len(perLayerDefs) {
			t.Errorf("%s: %d per-layer metrics, want %d", spec.name, len(res.perLayer), len(perLayerDefs))
		}
		for _, d := range perLayerDefs {
			m, ok := res.perLayer[d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v (present %v), want a finite %s", spec.name, d.name, m, ok, d.unit)
			}
			if m.Value > 0 {
				positive[d.name] = true
			}
		}
		if fi, err := os.Stat(filepath.Join(dir, spec.name+".spans.json")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span file: %v", spec.name, err)
		}
	}
	for _, d := range perLayerDefs {
		if !positive[d.name] && !mayBeZero[d.name] {
			t.Errorf("per-layer metric %s was positive on no workload", d.name)
		}
	}
}
