package sdet

import (
	"bytes"
	"strings"
	"testing"

	"k42trace/internal/event"
	"k42trace/internal/ksim"
	"k42trace/internal/stream"
)

func TestWorkloadDeterministic(t *testing.T) {
	a := Workload(4, DefaultParams())
	b := Workload(4, DefaultParams())
	if len(a) != len(b) || len(a) != 16 {
		t.Fatalf("workload sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Ops) != len(b[i].Ops) {
			t.Fatalf("script %d differs between identical seeds", i)
		}
		for j := range a[i].Ops {
			if a[i].Ops[j].Kind != b[i].Ops[j].Kind || a[i].Ops[j].Path != b[i].Ops[j].Path {
				t.Fatalf("script %d op %d differs", i, j)
			}
		}
	}
	c := Workload(4, Params{ScriptsPerCPU: 4, CommandsPerScript: 6, Seed: 43})
	diff := false
	for i := range a {
		if len(a[i].Ops) != len(c[i].Ops) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical workloads")
	}
}

func TestWorkloadDefaultsApplied(t *testing.T) {
	w := Workload(2, Params{})
	if len(w) != 8 {
		t.Errorf("zero params should default to 4 scripts/cpu, got %d scripts", len(w))
	}
	for _, s := range w {
		if len(s.Ops) == 0 {
			t.Error("empty script")
		}
	}
}

func TestWorkloadWithForks(t *testing.T) {
	p := DefaultParams()
	p.Forks = true
	w := Workload(1, p)
	forks := 0
	for _, s := range w {
		for _, op := range s.Ops {
			if op.Kind == ksim.OpFork {
				forks++
				if op.Child == nil || len(op.Child.Ops) == 0 {
					t.Fatal("fork without child script")
				}
			}
		}
	}
	if forks != 4*6 {
		t.Errorf("got %d forks, want 24", forks)
	}
}

func TestWorkloadWithThreads(t *testing.T) {
	p := DefaultParams()
	p.Threads = true
	w := Workload(1, p)
	spawns := 0
	for _, s := range w {
		for _, op := range s.Ops {
			if op.Kind == ksim.OpSpawn {
				spawns++
			}
			if op.Kind == ksim.OpFork {
				t.Fatal("Threads should take precedence over Forks")
			}
		}
	}
	if spawns != 4*6 {
		t.Errorf("got %d spawns, want 24", spawns)
	}
	// The threaded workload runs to completion: one process per script,
	// commands+1 threads each.
	pt, err := Run(Config{CPUs: 4, Tuned: true, Trace: TraceCompiledOut,
		Params: p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Throughput <= 0 {
		t.Error("threaded workload produced no throughput")
	}
}

func TestRunAllTraceModes(t *testing.T) {
	p := Params{ScriptsPerCPU: 2, CommandsPerScript: 3, Seed: 7}
	for _, mode := range []TraceMode{TraceCompiledOut, TraceMasked, TraceOn} {
		pt, err := Run(Config{CPUs: 2, Tuned: true, Trace: mode, Params: p}, nil)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if pt.Throughput <= 0 {
			t.Errorf("%v: throughput %f", mode, pt.Throughput)
		}
		switch mode {
		case TraceOn:
			if pt.Events == 0 {
				t.Errorf("%v: no events", mode)
			}
		default:
			if pt.Events != 0 {
				t.Errorf("%v: unexpected events %d", mode, pt.Events)
			}
		}
	}
}

// TestC3TracingOverheadSDET is claim C3: running SDET with the trace
// infrastructure compiled in (mask disabled) costs under 1%, and even with
// every event enabled the slowdown stays in single digits.
func TestC3TracingOverheadSDET(t *testing.T) {
	p := Params{ScriptsPerCPU: 3, CommandsPerScript: 5, Seed: 11}
	base, err := Run(Config{CPUs: 4, Tuned: true, Trace: TraceCompiledOut, Params: p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	masked, err := Run(Config{CPUs: 4, Tuned: true, Trace: TraceMasked, Params: p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(Config{CPUs: 4, Tuned: true, Trace: TraceOn, Params: p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	maskedOv := float64(masked.MakespanNs)/float64(base.MakespanNs) - 1
	onOv := float64(on.MakespanNs)/float64(base.MakespanNs) - 1
	t.Logf("masked overhead %.3f%%, full-tracing overhead %.2f%% (%d events)",
		maskedOv*100, onOv*100, on.Events)
	if maskedOv > 0.01 {
		t.Errorf("masked overhead %.3f%% exceeds the paper's <1%%", maskedOv*100)
	}
	if onOv > 0.10 {
		t.Errorf("full tracing overhead %.2f%% exceeds 10%%", onOv*100)
	}
	if onOv <= 0 {
		t.Error("full tracing should cost something")
	}
}

// TestFigure3Shape reproduces the headline comparison: the tuned kernel
// with tracing compiled in scales near-linearly; the coarse kernel falls
// behind well before 16 processors.
func TestFigure3Shape(t *testing.T) {
	p := Params{ScriptsPerCPU: 4, CommandsPerScript: 5, Seed: 42}
	pts, err := Sweep([]int{1, 4, 16}, TraceMasked, p)
	if err != nil {
		t.Fatal(err)
	}
	get := func(cpus int, tuned bool) float64 {
		for _, pt := range pts {
			if pt.CPUs == cpus && pt.Tuned == tuned {
				return pt.Throughput
			}
		}
		t.Fatalf("missing point %d/%v", cpus, tuned)
		return 0
	}
	tuned16 := get(16, true) / get(1, true)
	coarse16 := get(16, false) / get(1, false)
	t.Logf("relative throughput at 16 cpus: tuned %.1fx, coarse %.1fx", tuned16, coarse16)
	if tuned16 < 12 {
		t.Errorf("tuned scaling %.1fx too weak", tuned16)
	}
	if coarse16 > 0.75*tuned16 {
		t.Errorf("coarse (%.1fx) should trail tuned (%.1fx)", coarse16, tuned16)
	}
	table := FormatTable(pts)
	if !strings.Contains(table, "tuned/masked") || !strings.Contains(table, "coarse/masked") {
		t.Errorf("table missing columns:\n%s", table)
	}
	for _, n := range []string{"1", "4", "16"} {
		if !strings.Contains(table, "\n"+n) && !strings.HasPrefix(table, n) {
			t.Errorf("table missing row for %s cpus:\n%s", n, table)
		}
	}
}

// TestC4LockedVsLocklessTracing reproduces §4.1's LTT result in virtual
// time: replacing a lock-serialized global event buffer with lockless
// per-CPU logging yields a large multiprocessor improvement ("an order of
// magnitude performance improvement was achieved when this technology was
// applied to Linux"). With 16 CPUs logging full event streams, the locked
// design collapses; the lockless design stays near the untraced makespan.
func TestC4LockedVsLocklessTracing(t *testing.T) {
	p := Params{ScriptsPerCPU: 3, CommandsPerScript: 5, Seed: 11}
	lockless, err := Run(Config{CPUs: 16, Tuned: true, Trace: TraceOn, Params: p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	locked, err := Run(Config{CPUs: 16, Tuned: true, Trace: TraceOn, Params: p,
		LockedTrace: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(locked.MakespanNs) / float64(lockless.MakespanNs)
	t.Logf("16-CPU tracing makespan: locked/lockless = %.2fx (%d vs %d virtual ns)",
		ratio, locked.MakespanNs, lockless.MakespanNs)
	if ratio < 3 {
		t.Errorf("locked tracing should degrade multiprocessor runs heavily, got %.2fx", ratio)
	}
	// On one processor the two designs are nearly indistinguishable — the
	// win is specifically a multiprocessor one.
	l1, err := Run(Config{CPUs: 1, Tuned: true, Trace: TraceOn, Params: p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := Run(Config{CPUs: 1, Tuned: true, Trace: TraceOn, Params: p, LockedTrace: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1 := float64(k1.MakespanNs) / float64(l1.MakespanNs)
	if r1 > 1.01 {
		t.Errorf("uniprocessor locked tracing should cost ~nothing, got %.3fx", r1)
	}
}

func TestRunCapturesTraceFile(t *testing.T) {
	var buf bytes.Buffer
	p := Params{ScriptsPerCPU: 2, CommandsPerScript: 3, Seed: 5}
	pt, err := Run(Config{CPUs: 2, Tuned: false, Trace: TraceOn, Params: p, Sample: 50_000}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Events == 0 {
		t.Fatal("no events")
	}
	rd, err := stream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs, st, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if st.Garbled() {
		t.Fatal("garbled SDET trace")
	}
	// The decoder also surfaces infrastructure events (clock anchors);
	// exclude them when comparing against the kernel's own count.
	logged := 0
	for _, e := range evs {
		if e.Major() != event.MajorControl {
			logged++
		}
	}
	if uint64(logged) != pt.Events {
		t.Errorf("file has %d OS events, kernel logged %d", logged, pt.Events)
	}
}
