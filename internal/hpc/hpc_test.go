package hpc

import (
	"bytes"
	"testing"

	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/ksim"
	"k42trace/internal/stream"
)

// kernel is an untraced tuned kernel with one CPU a rank.
func kernel(t *testing.T, ranks int) *ksim.Kernel {
	t.Helper()
	k, err := ksim.NewKernel(ksim.Config{CPUs: ranks, Tuned: true})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestAllRanksComplete(t *testing.T) {
	res, err := Run(kernel(t, 4), DefaultParams(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scripts != 4 || res.Blocked != 0 {
		t.Fatalf("scripts=%d blocked=%d", res.Scripts, res.Blocked)
	}
	if res.ParallelEfficiency <= 0 || res.ParallelEfficiency > 1 {
		t.Errorf("efficiency %f", res.ParallelEfficiency)
	}
}

// TestRunRefusesAnEmptyRun: no ranks or no iterations is an error, not a
// run quietly raised to one of each.
func TestRunRefusesAnEmptyRun(t *testing.T) {
	for _, p := range []Params{{Ranks: 0, Iterations: 1}, {Ranks: 1, Iterations: 0}, {Ranks: -1, Iterations: -1}} {
		if _, err := Run(kernel(t, 1), p); err == nil {
			t.Errorf("Run(%d ranks, %d iterations) = nil error", p.Ranks, p.Iterations)
		}
	}
}

func TestImbalanceCostsEfficiency(t *testing.T) {
	balanced := DefaultParams(8)
	balanced.ImbalancePct = 0
	skewed := DefaultParams(8)
	skewed.ImbalancePct = 40
	rb, err := Run(kernel(t, 8), balanced)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(kernel(t, 8), skewed)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("efficiency: balanced %.3f, 40%% skew %.3f", rb.ParallelEfficiency, rs.ParallelEfficiency)
	if rs.ParallelEfficiency >= rb.ParallelEfficiency {
		t.Errorf("imbalance should reduce parallel efficiency: %.3f vs %.3f",
			rs.ParallelEfficiency, rb.ParallelEfficiency)
	}
	if rs.MakespanNs <= rb.MakespanNs {
		t.Errorf("skewed makespan %d should exceed balanced %d", rs.MakespanNs, rb.MakespanNs)
	}
}

// TestBarrierCounters counts the barrier's arrivals and releases in the
// trace the run logs.
func TestBarrierCounters(t *testing.T) {
	k, tr, err := ksim.NewTracedKernel(ksim.Config{CPUs: 4, Tuned: true},
		core.Config{BufWords: 4096, NumBufs: 8, Mode: core.Stream})
	if err != nil {
		t.Fatal(err)
	}
	tr.EnableAll()
	var buf bytes.Buffer
	wait := stream.CaptureAsync(tr, &buf)
	p := DefaultParams(4)
	p.Iterations = 7
	if _, err := k.Run(Build(k, p)); err != nil {
		t.Fatal(err)
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	rd, err := stream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var arrivals, releases uint64
	barriers := map[uint64]bool{}
	for i := range evs {
		if evs[i].Major() != event.MajorSched {
			continue
		}
		switch evs[i].Minor() {
		case ksim.EvBarrierWait:
			arrivals++
			barriers[evs[i].Data[1]] = true
		case ksim.EvBarrierRelease:
			releases++
			barriers[evs[i].Data[0]] = true
		}
	}
	if len(barriers) != 1 {
		t.Fatalf("%d barriers", len(barriers))
	}
	// One barrier, 4 ranks * 7 iterations arrivals, 7 releases.
	if arrivals != 28 || releases != 7 {
		t.Errorf("arrivals=%d releases=%d", arrivals, releases)
	}
}

func TestIncompleteBarrierReportsBlocked(t *testing.T) {
	k, err := ksim.NewKernel(ksim.Config{CPUs: 2, Tuned: true})
	if err != nil {
		t.Fatal(err)
	}
	// Barrier for 3, but only 2 processes: both strand.
	bar := k.NewBarrier(3)
	mk := func(name string) *ksim.Script {
		return &ksim.Script{Name: name, Ops: []ksim.Op{
			{Kind: ksim.OpCompute, Ns: 1000},
			{Kind: ksim.OpBarrier, Barrier: bar},
			{Kind: ksim.OpCompute, Ns: 1000},
		}}
	}
	res, err := k.Run([]*ksim.Script{mk("a"), mk("b")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocked != 2 {
		t.Errorf("Blocked = %d, want 2", res.Blocked)
	}
	if res.Scripts != 0 {
		t.Errorf("Scripts = %d, want 0 (nobody finished)", res.Scripts)
	}
}

// TestSingleWriterPerCPUNeverGarbles is the §3.1 claim verbatim: "for
// large scientific applications running one thread per processor, such
// errors will not occur." One rank per CPU means one writer per buffer;
// the captured trace must be anomaly-free and fully decodable.
func TestSingleWriterPerCPUNeverGarbles(t *testing.T) {
	k, tr, err := ksim.NewTracedKernel(ksim.Config{CPUs: 8, Tuned: true},
		core.Config{BufWords: 4096, NumBufs: 8, Mode: core.Stream})
	if err != nil {
		t.Fatal(err)
	}
	tr.EnableAll()
	var buf bytes.Buffer
	wait := stream.CaptureAsync(tr, &buf)
	p := DefaultParams(8)
	p.Iterations = 30
	res, err := k.Run(Build(k, p))
	if err != nil {
		t.Fatal(err)
	}
	tr.Stop()
	cst, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocked != 0 || res.Scripts != 8 {
		t.Fatalf("blocked=%d scripts=%d", res.Blocked, res.Scripts)
	}
	if cst.Anomalies != 0 {
		t.Errorf("anomalous buffers: %d (single-writer runs must have none)", cst.Anomalies)
	}
	rd, err := stream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs, st, err := rd.ReadAll()
	if err != nil || st.Garbled() {
		t.Fatalf("err=%v garbled=%v", err, st.Garbled())
	}
	// Barrier events present for the analysis tools.
	waits := 0
	for i := range evs {
		if evs[i].Major() == event.MajorSched && evs[i].Minor() == ksim.EvBarrierWait {
			waits++
		}
	}
	if waits == 0 {
		t.Error("no barrier-wait events in trace")
	}
}
