package ksim

import (
	"fmt"
	"testing"

	"k42trace/internal/core"
	"k42trace/internal/event"
)

// mixScript builds a script exercising every subsystem: file ops (dentry
// and file locks), allocation (GMalloc chain), page faults (page
// allocator), computation, and misc syscalls.
func mixScript(name string, iters int) *Script {
	path := "/tmp/" + name
	var ops []Op
	for i := 0; i < iters; i++ {
		ops = append(ops,
			Op{Kind: OpStat, Path: "/bin/" + name},
			Op{Kind: OpOpen, Path: path},
			Op{Kind: OpRead, Path: path, Bytes: 4096},
			Op{Kind: OpCompute, Ns: 5000},
			Op{Kind: OpAlloc, Bytes: 256},
			Op{Kind: OpAlloc, Bytes: 1024},
			Op{Kind: OpSyscall, Nr: SysMisc, Ns: 800},
			Op{Kind: OpWrite, Path: path, Bytes: 2048},
			Op{Kind: OpFree},
			Op{Kind: OpFree},
			Op{Kind: OpTouch, Pages: 2},
			Op{Kind: OpStat, Path: path},
			Op{Kind: OpClose, Path: path},
		)
	}
	return &Script{Name: name, Ops: ops}
}

func workload(n, iters int) []*Script {
	scripts := make([]*Script, n)
	for i := range scripts {
		scripts[i] = mixScript(fmt.Sprintf("scr%02d", i), iters)
	}
	return scripts
}

func run(t *testing.T, cpus int, tuned bool, scripts []*Script) RunResult {
	t.Helper()
	k, err := NewKernel(Config{CPUs: cpus, Tuned: tuned})
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Run(scripts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewKernel(Config{}); err == nil {
		t.Error("zero CPUs accepted")
	}
	k, err := NewKernel(Config{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if k.cfg.Quantum == 0 || k.costs.EventBase != 100 {
		t.Error("defaults not applied")
	}
}

func TestRunCompletesAllScripts(t *testing.T) {
	res := run(t, 4, true, workload(12, 10))
	if res.Scripts != 12 {
		t.Errorf("Scripts = %d want 12", res.Scripts)
	}
	if res.Processes != 12 {
		t.Errorf("Processes = %d want 12", res.Processes)
	}
	if res.MakespanNs == 0 || res.Ops == 0 {
		t.Error("empty result")
	}
	if res.Throughput() <= 0 {
		t.Error("throughput must be positive")
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, 4, false, workload(8, 12))
	b := run(t, 4, false, workload(8, 12))
	if a.MakespanNs != b.MakespanNs || a.Ops != b.Ops {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
	for i := range a.BusyNs {
		if a.BusyNs[i] != b.BusyNs[i] || a.IdleNs[i] != b.IdleNs[i] {
			t.Errorf("cpu %d accounting differs", i)
		}
	}
}

// TestDeterminismAllFeatures re-checks reproducibility with every
// subsystem engaged at once: interrupts, blocking disk I/O, samplers,
// hardware counters, staggered start, probes, and full tracing.
func TestDeterminismAllFeatures(t *testing.T) {
	runAll := func() (RunResult, uint64) {
		costs := DefaultCosts()
		costs.DiskLatency = 100_000
		costs.DiskMissEvery = 6
		k, tr, err := NewTracedKernel(Config{
			CPUs: 4, Tuned: false, Costs: costs,
			SamplePeriod:    40_000,
			HWCSamplePeriod: 60_000,
			TimerIRQPeriod:  80_000,
			StaggerStart:    30_000,
		}, core.Config{BufWords: 8192, NumBufs: 8})
		if err != nil {
			t.Fatal(err)
		}
		tr.EnableAll()
		k.AttachProbe(ProbeSyscallEnter, "p", func(pc ProbeCtx) { pc.Log(50, pc.Arg) })
		res, err := k.Run(workload(8, 10))
		if err != nil {
			t.Fatal(err)
		}
		return res, k.ProbeFires()
	}
	a, af := runAll()
	b, bf := runAll()
	if a.MakespanNs != b.MakespanNs || a.Ops != b.Ops ||
		a.TraceEvents != b.TraceEvents || af != bf {
		t.Errorf("non-deterministic with all features: %+v (%d fires) vs %+v (%d fires)",
			a, af, b, bf)
	}
	if a.TraceEvents == 0 || af == 0 {
		t.Error("features did not engage")
	}
}

func TestBusyIdleAccounting(t *testing.T) {
	res := run(t, 4, true, workload(6, 10))
	for i := range res.BusyNs {
		total := res.BusyNs[i] + res.IdleNs[i]
		// Busy + idle can slightly undershoot makespan (event-logging time
		// advances the clock without being "busy work"), but never exceed,
		// and should cover most of it.
		if total > res.MakespanNs {
			t.Errorf("cpu %d: busy+idle %d > makespan %d", i, total, res.MakespanNs)
		}
	}
}

// TestScalingTunedVsCoarse is the shape of Figure 3: the Tuned (K42-like)
// configuration scales near-linearly while the Coarse (global-lock)
// configuration falls away as processors contend. The paper's graph runs
// to 24 processors; 16 is where the two curves separate decisively.
func TestScalingTunedVsCoarse(t *testing.T) {
	const scriptsPerCPU, iters = 4, 25
	speedup := func(tuned bool, p int) float64 {
		base := run(t, 1, tuned, workload(scriptsPerCPU*1, iters))
		at := run(t, p, tuned, workload(scriptsPerCPU*p, iters))
		// Weak-scaling speedup: throughput ratio.
		return at.Throughput() / base.Throughput()
	}
	tuned16 := speedup(true, 16)
	coarse16 := speedup(false, 16)
	t.Logf("speedup at 16 CPUs: tuned=%.2f coarse=%.2f", tuned16, coarse16)
	if tuned16 < 13.0 {
		t.Errorf("tuned config should scale near-linearly at 16 CPUs, got %.2f", tuned16)
	}
	if coarse16 > tuned16*0.75 {
		t.Errorf("coarse config should lag tuned markedly: coarse %.2f vs tuned %.2f",
			coarse16, tuned16)
	}
}

func TestLockContentionCoarseVsTuned(t *testing.T) {
	kc, _ := NewKernel(Config{CPUs: 8, Tuned: false})
	if _, err := kc.Run(workload(32, 20)); err != nil {
		t.Fatal(err)
	}
	kt, _ := NewKernel(Config{CPUs: 8, Tuned: true})
	if _, err := kt.Run(workload(32, 20)); err != nil {
		t.Fatal(err)
	}
	sumWait := func(k *Kernel) (total uint64, top *SimLock) {
		for _, l := range k.locks {
			total += l.TotalWaitNs
			if top == nil || l.TotalWaitNs > top.TotalWaitNs {
				top = l
			}
		}
		return
	}
	cw, ctop := sumWait(kc)
	tw, _ := sumWait(kt)
	t.Logf("coarse wait %dns (top: %s %dns), tuned wait %dns", cw, ctop.name, ctop.TotalWaitNs, tw)
	if cw == 0 {
		t.Fatal("coarse run produced no lock contention")
	}
	if tw*3 > cw {
		t.Errorf("tuned contention (%d) should be well under coarse (%d)", tw, cw)
	}
	// The most contended coarse locks are the global allocator / dentry /
	// runqueue family, mirroring Figure 7.
	switch ctop.name {
	case "baseServers.GMalloc", "fs.dentryList", "sched.runqueue", "kernel.GMalloc":
	default:
		t.Errorf("unexpected top lock %q", ctop.name)
	}
	// Contended locks must also have recorded spins and max-wait.
	if ctop.Spins == 0 || ctop.MaxWaitNs == 0 || ctop.Contended == 0 {
		t.Errorf("top lock stats incomplete: %+v", *ctop)
	}
}

func TestTracedRunProducesDecodableEvents(t *testing.T) {
	k, tr, err := NewTracedKernel(Config{CPUs: 4, Tuned: false, SamplePeriod: 100_000},
		core.Config{BufWords: 4096, NumBufs: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr.EnableAll()
	res, err := k.Run(workload(8, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceEvents == 0 {
		t.Fatal("no trace events logged")
	}
	if got := tr.Stats().Events; got != res.TraceEvents {
		t.Errorf("tracer counted %d events, kernel %d", got, res.TraceEvents)
	}
	majors := map[event.Major]int{}
	var total int
	for cpu := 0; cpu < 4; cpu++ {
		evs, info := tr.Dump(cpu)
		if info.Stats.Garbled() {
			t.Fatalf("cpu %d garbled: %+v", cpu, info.Stats)
		}
		var prev uint64
		for _, e := range evs {
			if e.Time < prev {
				t.Fatalf("cpu %d: virtual timestamps went backwards", cpu)
			}
			prev = e.Time
			majors[e.Major()]++
			total++
		}
	}
	for _, m := range []event.Major{
		event.MajorSched, event.MajorSyscall, event.MajorIO, event.MajorLock,
		event.MajorAlloc, event.MajorException, event.MajorUser, event.MajorSample,
	} {
		if majors[m] == 0 {
			t.Errorf("no %v events in trace", m)
		}
	}
	if total == 0 {
		t.Fatal("empty dumps")
	}
	// Events must render through the default registry.
	evs, _ := tr.Dump(0)
	for _, e := range evs[:min(20, len(evs))] {
		name, text := event.Describe(event.Default, &e)
		if name == "" || text == "" {
			t.Fatalf("event %v failed to describe", e.Header)
		}
	}
}

func TestMaskedTracingIsCheapAndSilent(t *testing.T) {
	// Tracing compiled in but mask disabled: no events, tiny virtual-time
	// cost relative to compiled-out.
	kOff, trOff, err := NewTracedKernel(Config{CPUs: 2}, core.Config{BufWords: 1024, NumBufs: 4})
	if err != nil {
		t.Fatal(err)
	}
	trOff.DisableAll()
	resOff, err := kOff.Run(workload(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	if resOff.TraceEvents != 0 {
		t.Errorf("mask-disabled run logged %d events", resOff.TraceEvents)
	}
	kOut, err := NewKernel(Config{CPUs: 2}) // compiled out
	if err != nil {
		t.Fatal(err)
	}
	resOut, err := kOut.Run(workload(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	overhead := float64(resOff.MakespanNs)/float64(resOut.MakespanNs) - 1
	t.Logf("mask-check overhead vs compiled-out: %.4f%%", overhead*100)
	// The paper keeps trace statements compiled in even when benchmarking,
	// at under 1% cost; the mask-check-only path must stay below that.
	if overhead > 0.01 {
		t.Errorf("disabled tracing overhead %.4f%% exceeds 1%%", overhead*100)
	}
}

func TestForkCreatesAndRunsChildren(t *testing.T) {
	child := &Script{Name: "child", Ops: []Op{
		{Kind: OpCompute, Ns: 10000},
		{Kind: OpAlloc, Bytes: 64},
		{Kind: OpFree},
	}}
	parent := &Script{Name: "parent", Ops: []Op{
		{Kind: OpCompute, Ns: 5000},
		{Kind: OpFork, Child: child},
		{Kind: OpFork, Child: child},
		{Kind: OpCompute, Ns: 5000},
	}}
	res := run(t, 2, true, []*Script{parent})
	if res.Scripts != 1 {
		t.Errorf("Scripts = %d", res.Scripts)
	}
	if res.Processes != 3 {
		t.Errorf("Processes = %d want 3 (parent + 2 children)", res.Processes)
	}
}

func TestForkCheaperWhenTuned(t *testing.T) {
	forker := func() []*Script {
		var ops []Op
		for i := 0; i < 20; i++ {
			ops = append(ops, Op{Kind: OpFork, Child: &Script{Name: "c",
				Ops: []Op{{Kind: OpCompute, Ns: 1000}}}})
		}
		return []*Script{{Name: "forker", Ops: ops}}
	}
	tuned := run(t, 1, true, forker())
	coarse := run(t, 1, false, forker())
	if tuned.MakespanNs >= coarse.MakespanNs {
		t.Errorf("lazy-replication fork (%d) should beat eager copy (%d)",
			tuned.MakespanNs, coarse.MakespanNs)
	}
}

func TestKernelSingleUse(t *testing.T) {
	k, _ := NewKernel(Config{CPUs: 1})
	if _, err := k.Run(workload(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(workload(1, 1)); err == nil {
		t.Error("second Run should fail")
	}
}

func TestEdgeOps(t *testing.T) {
	s := &Script{Name: "edge", Ops: []Op{
		{Kind: OpFree},             // free with no allocation: no-op
		{Kind: OpFork, Child: nil}, // nil child: no-op
		{Kind: OpUser, Minor: 40, Payload: 7},
		{Kind: OpStat, Path: "/etc/passwd"},
	}}
	res := run(t, 1, true, []*Script{s})
	if res.Scripts != 1 {
		t.Error("edge script did not complete")
	}
}

func TestSymTable(t *testing.T) {
	st := NewSymTable()
	a := st.Sym("foo")
	b := st.Sym("bar")
	if a == b {
		t.Error("distinct names share an ID")
	}
	if st.Sym("foo") != a {
		t.Error("interning not idempotent")
	}
	if st.symName(a) != "foo" || st.symName(9999) != "<unknown>" {
		t.Error("symName wrong")
	}
	c1 := st.Chain("f", "g")
	c2 := st.Chain("f", "h")
	if c1 == c2 {
		t.Error("distinct chains share an ID")
	}
	if st.Chain("f", "g") != c1 {
		t.Error("chain interning not idempotent")
	}
	fr := st.chainFrames(c1)
	if len(fr) != 2 || fr[0] != "f" || fr[1] != "g" {
		t.Errorf("frames %v", fr)
	}
	if st.numSyms() < 3 || st.numChains() < 3 {
		t.Error("counts wrong")
	}
}

func TestSamplerAttributesSpinning(t *testing.T) {
	// Under heavy coarse contention, the sampler should attribute a large
	// share of samples to FairBLock::_acquire(), as in Figure 6.
	k, tr, err := NewTracedKernel(Config{CPUs: 8, Tuned: false, SamplePeriod: 20_000},
		core.Config{BufWords: 16384, NumBufs: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr.EnableAll()
	if _, err := k.Run(workload(32, 20)); err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	total := 0
	for cpu := 0; cpu < 8; cpu++ {
		evs, _ := tr.Dump(cpu)
		for _, e := range evs {
			if e.Major() == event.MajorSample && e.Minor() == EvSamplePC {
				counts[e.Data[0]]++
				total++
			}
		}
	}
	if total == 0 {
		t.Fatal("no PC samples")
	}
	spin := counts[uint64(k.sym.fairBLockAcquire)]
	t.Logf("samples: %d total, %d in FairBLock::_acquire (%.1f%%)",
		total, spin, 100*float64(spin)/float64(total))
	if spin == 0 {
		t.Error("no samples attributed to lock spinning under contention")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
