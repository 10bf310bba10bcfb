package diff

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"k42trace/internal/analysis"
	"k42trace/internal/event"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// genTrace runs a small SDET workload and decodes it.
func genTrace(t *testing.T, tuned bool, epochs bool) *analysis.Trace {
	t.Helper()
	cfg := sdet.Config{CPUs: 4, Tuned: tuned, Trace: sdet.TraceOn,
		Params: sdet.Params{ScriptsPerCPU: 3, CommandsPerScript: 4, Seed: 9},
		Sample: 50_000}
	if epochs {
		cfg.MaskChanges = []sdet.MaskChange{
			{AtNs: 300_000, Mask: ^uint64(0) &^ event.MajorSample.Bit()},
			{AtNs: 600_000, Mask: ^uint64(0)},
		}
	}
	var buf bytes.Buffer
	if _, err := sdet.Run(cfg, &buf); err != nil {
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
	return analysis.Build(evs, rd.Meta().ClockHz, event.Default)
}

// TestSelfDiffZero is the core invariant at unit level: a trace diffed
// against itself reports exactly zero under every alignment strategy.
func TestSelfDiffZero(t *testing.T) {
	tr := genTrace(t, true, true)
	for _, opts := range []Options{
		{},
		{Anchors: []string{"TRC_SCHED_SWITCH"}},
		{Windows: 101, Workers: 3},
	} {
		rep := Diff(tr, tr, opts)
		if !zero(rep) {
			var b strings.Builder
			rep.Format(&b, 5)
			t.Errorf("opts %+v: self-diff not zero:\n%s", opts, b.String())
		}
		if rep.Align.Scale != 1 {
			t.Errorf("opts %+v: self-diff scale = %v, want 1", opts, rep.Align.Scale)
		}
	}
}

// TestCorpusSelfDiffZero holds every checked-in corpus trace, the damaged
// ones salvage-read, to the same invariant.
func TestCorpusSelfDiffZero(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/corpus/*.ktr")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus traces: %v", err)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		evs, sr, err := stream.Salvage(f, fi.Size(), 4)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		tr := analysis.Build(evs, sr.Meta.ClockHz, event.Default)
		if rep := Diff(tr, tr, Options{Workers: 4}); !zero(rep) {
			var b strings.Builder
			rep.Format(&b, 5)
			t.Errorf("%s: self-diff not zero:\n%s", filepath.Base(path), b.String())
		}
	}
}

// TestAlignmentStrategies exercises anchor selection: named events when
// given, mask epochs when both runs have them, span otherwise — and the
// fall-back to span when a named anchor is missing from a run.
func TestAlignmentStrategies(t *testing.T) {
	plain := genTrace(t, true, false)  // no epochs
	epochA := genTrace(t, false, true) // coarse, epochs
	epochB := genTrace(t, true, true)  // tuned, epochs

	if got := Diff(epochA, epochB, Options{}).Align; got.Kind != "mask-epochs" ||
		got.AnchorsA == 0 || got.AnchorsB == 0 {
		t.Errorf("epoch traces aligned by %+v, want mask-epochs", got)
	}
	if got := Diff(plain, plain, Options{}).Align; got.Kind != "span" {
		t.Errorf("plain traces aligned by %q, want span", got.Kind)
	}
	if got := Diff(epochA, epochB, Options{Anchors: []string{"TRC_SCHED_SWITCH"}}).Align; got.Kind != "anchor:TRC_SCHED_SWITCH" {
		t.Errorf("named anchor alignment reported %q", got.Kind)
	}
	if got := Diff(epochA, epochB, Options{Anchors: []string{"NO_SUCH_EVENT"}}).Align; got.Kind != "span" {
		t.Errorf("missing anchor should fall back to span, got %q", got.Kind)
	}
}

// TestDiffSurfacesRegression checks the headline use case: coarse vs tuned
// must show the coarse kernel losing time to lock waiting, at the top of
// the lock section.
func TestDiffSurfacesRegression(t *testing.T) {
	coarse := genTrace(t, false, true)
	tuned := genTrace(t, true, true)
	rep := Diff(coarse, tuned, Options{LabelA: "coarse", LabelB: "tuned"})
	var lockRow *ModeDelta
	for i := range rep.Modes {
		if rep.Modes[i].Mode == "lockwait" {
			lockRow = &rep.Modes[i]
		}
	}
	if lockRow == nil || lockRow.DeltaShare >= 0 {
		t.Errorf("lockwait share did not drop coarse->tuned: %+v", lockRow)
	}
	if len(rep.Locks) == 0 || rep.Locks[0].DeltaWaitNs >= 0 {
		t.Fatalf("top lock delta does not show the regression: %+v", rep.Locks)
	}
	if rep.Divergence <= 0 {
		t.Errorf("divergence = %v, want > 0", rep.Divergence)
	}
	// The text report's top lock row must carry the chain the waits key on.
	var b strings.Builder
	if err := rep.Format(&b, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), rep.Locks[0].Frames[0]) {
		t.Errorf("text report omits the top regressed chain %q", rep.Locks[0].Frames[0])
	}
}

// TestDiffWorkerParity pins -j determinism without golden files: text and
// JSON renderings must be byte-identical for 1, 2, and 8 workers.
func TestDiffWorkerParity(t *testing.T) {
	coarse := genTrace(t, false, true)
	tuned := genTrace(t, true, true)
	render := func(workers int) (string, string) {
		rep := Diff(coarse, tuned, Options{Workers: workers})
		var tb, jb strings.Builder
		if err := rep.Format(&tb, 10); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&jb); err != nil {
			t.Fatal(err)
		}
		return tb.String(), jb.String()
	}
	baseText, baseJSON := render(1)
	for _, w := range []int{2, 8} {
		text, js := render(w)
		if text != baseText {
			t.Errorf("workers=%d: text report differs from workers=1", w)
		}
		if js != baseJSON {
			t.Errorf("workers=%d: JSON report differs from workers=1", w)
		}
	}
}

// zero reports whether the diff found no difference at all: every delta
// exactly zero and divergence exactly 0 — the self-diff invariant.
func zero(r *Report) bool {
	if r.Divergence != 0 {
		return false
	}
	for _, m := range r.Modes {
		if m.DeltaNs != 0 || m.DeltaShare != 0 {
			return false
		}
	}
	for _, c := range r.CPUs {
		if c.DeltaBusyShare != 0 || c.DeltaLockShare != 0 {
			return false
		}
	}
	for _, m := range r.Majors {
		if m.Delta != 0 {
			return false
		}
	}
	for _, l := range r.Locks {
		if l.DeltaWaitNs != 0 || l.ACount != l.BCount || l.ASpins != l.BSpins || l.AHoldNs != l.BHoldNs {
			return false
		}
	}
	for _, p := range r.Profile {
		if p.ACount != p.BCount || p.DeltaShare != 0 {
			return false
		}
	}
	for _, p := range r.Procs {
		if p.DeltaTotalNs != 0 || p.AUserNs != p.BUserNs || p.AKernelNs != p.BKernelNs ||
			p.AIPCNs != p.BIPCNs || p.ALockNs != p.BLockNs {
			return false
		}
	}
	for _, w := range r.Windows {
		if w.Score != 0 {
			return false
		}
	}
	return true
}
