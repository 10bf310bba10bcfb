package ktrace

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"k42trace/internal/diff"
)

// TestToolOutputParallelParity proves that the -j flag in the CLI tools
// is a pure speed knob: every tool-facing rendering — kmon's timeline
// and utilization, tracelist's listing, lockorder's report — is
// byte-identical whether the golden corpus traces are decoded with 1
// worker or 8. (truncated.ktr is excluded: a torn file needs the salvage
// path, which has its own parity coverage.)
func TestToolOutputParallelParity(t *testing.T) {
	// garbled.ktr cannot pass the strict reader (destroyed block magic);
	// it goes through the salvage opener, which also takes a worker count.
	traces := []struct {
		file    string
		salvage bool
	}{
		{"clean.ktr", false},
		{"crosscpu-io.ktr", false},
		{"garbled.ktr", true},
	}
	open := func(t *testing.T, file string, salvage bool, workers int) (*Trace, TraceMeta) {
		t.Helper()
		path := filepath.Join(corpusDir, file)
		if salvage {
			tr, rep, err := SalvageTraceFile(path, workers)
			if err != nil {
				t.Fatal(err)
			}
			return tr, rep.Meta
		}
		tr, meta, _, err := OpenTraceFileParallel(path, workers)
		if err != nil {
			t.Fatal(err)
		}
		return tr, meta
	}
	renders := []struct {
		name   string
		render func(tr *Trace, meta TraceMeta) string
	}{
		{"kmon-timeline", func(tr *Trace, meta TraceMeta) string {
			tl := tr.Timeline(100)
			var b strings.Builder
			b.WriteString(tl.ASCII())
			for cpu, u := range tl.Utilization() {
				fmt.Fprintf(&b, "cpu%-3d utilization %5.1f%%\n", cpu, u*100)
			}
			return b.String()
		}},
		{"tracelist", func(tr *Trace, meta TraceMeta) string {
			var b strings.Builder
			if _, err := tr.List(&b, ListOptions{Limit: 400}); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}},
		{"lockorder", func(tr *Trace, meta TraceMeta) string {
			var b strings.Builder
			if err := tr.LockOrder().Format(&b); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}},
	}
	for _, trace := range traces {
		for _, r := range renders {
			t.Run(trace.file+"/"+r.name, func(t *testing.T) {
				var base string
				for i, workers := range []int{1, 8} {
					tr, meta := open(t, trace.file, trace.salvage, workers)
					out := r.render(tr, meta)
					if out == "" {
						t.Fatalf("empty %s output for %s", r.name, trace.file)
					}
					if i == 0 {
						base = out
						continue
					}
					if out != base {
						t.Errorf("%s differs between -j1 and -j%d on %s:\n-j1:\n%s\n-j%d:\n%s",
							r.name, workers, trace.file, base, workers, out)
					}
				}
			})
		}
	}
}

// diffRenders runs the full tracediff pipeline over the coarse/tuned
// fixture pair at the given worker count and returns the report plus its
// three renderings (text, JSON, stacked HTML).
func diffRenders(t *testing.T, workers int) (rep *diff.Report, text, js, html string) {
	t.Helper()
	ta, _, _, err := OpenTraceFileParallel(filepath.Join(corpusDir, "coarse.ktr"), workers)
	if err != nil {
		t.Fatalf("fixture missing (run go test . -update): %v", err)
	}
	tb, _, _, err := OpenTraceFileParallel(filepath.Join(corpusDir, "tuned.ktr"), workers)
	if err != nil {
		t.Fatalf("fixture missing (run go test . -update): %v", err)
	}
	rep = diff.Diff(ta, tb, diff.Options{
		Workers: workers, LabelA: "coarse.ktr", LabelB: "tuned.ktr",
	})
	var tbuf, jbuf, hbuf strings.Builder
	if err := rep.Format(&tbuf, 10); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	xa := ta.ExportTimelineRange(rep.A.Start, rep.A.End)
	xb := tb.ExportTimelineRange(rep.B.Start, rep.B.End)
	xa.Label, xb.Label = rep.A.Label, rep.B.Label
	if err := WriteTimelineHTML(&hbuf, "tracediff coarse.ktr vs tuned.ktr", xa, xb); err != nil {
		t.Fatal(err)
	}
	return rep, tbuf.String(), jbuf.String(), hbuf.String()
}

// TestTraceDiffToolParity pins the differential analyzer byte-for-byte:
// the coarse/tuned fixture pair must render identical text and JSON
// reports at -j1 and -j8, matching the checked-in goldens, the stacked
// HTML export must be deterministic, and the report must surface the
// planted coarse-kernel lock regression in its top rows.
func TestTraceDiffToolParity(t *testing.T) {
	rep, text1, json1, html1 := diffRenders(t, 1)
	_, text8, json8, html8 := diffRenders(t, 8)
	if text1 != text8 {
		t.Errorf("tracediff text differs between -j1 and -j8:\n-j1:\n%s\n-j8:\n%s", text1, text8)
	}
	if json1 != json8 {
		t.Errorf("tracediff JSON differs between -j1 and -j8")
	}
	if html1 != html8 {
		t.Errorf("tracediff HTML differs between -j1 and -j8")
	}

	for name, got := range map[string]string{
		"coarse-vs-tuned.diff.golden":     text1,
		"coarse-vs-tuned.diffjson.golden": json1,
	} {
		golden := filepath.Join(corpusDir, name)
		if *updateCorpus {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("golden missing (run go test . -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("tracediff output diverged from %s", golden)
		}
	}

	// The planted difference: the coarse kernel's global locks must show up
	// as the tuned run (B) spending less time lock-waiting.
	var lockRow *diff.ModeDelta
	for i := range rep.Modes {
		if rep.Modes[i].Mode == "lockwait" {
			lockRow = &rep.Modes[i]
		}
	}
	if lockRow == nil || lockRow.DeltaShare >= 0 {
		t.Errorf("lockwait occupancy did not drop coarse->tuned: %+v", lockRow)
	}
	if len(rep.Locks) == 0 || rep.Locks[0].DeltaWaitNs >= 0 {
		t.Errorf("top lock delta does not show the coarse regression: %+v", rep.Locks)
	}
	if rep.Divergence <= 0 {
		t.Errorf("coarse vs tuned divergence = %v, want > 0", rep.Divergence)
	}
	if rep.Align.Kind != "mask-epochs" {
		t.Errorf("fixture pair aligned by %q, want mask-epochs", rep.Align.Kind)
	}
}

// TestTraceDiffSelfZero is the self-diff invariant over the whole golden
// corpus, opened through the facade: diffing any trace (clean, damaged, or
// truncated) against itself must report divergence exactly 0. Every delta
// field of the same self-diffs is held to 0 by internal/diff's
// TestCorpusSelfDiffZero.
func TestTraceDiffSelfZero(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.ktr"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus traces in %s (run go test . -update): %v", corpusDir, err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".ktr")
		t.Run(name, func(t *testing.T) {
			// Salvage-open handles the damaged corpus members too.
			tr, _, err := SalvageTraceFile(path, 4)
			if err != nil {
				t.Fatal(err)
			}
			rep := diff.Diff(tr, tr, diff.Options{Workers: 4})
			if rep.Divergence != 0 {
				t.Errorf("self-diff divergence = %v, want exactly 0", rep.Divergence)
			}
		})
	}
}

// TestTimelineHTMLSelfContained pins the HTML export's portability claims:
// rendering the same export twice is byte-identical, and the document
// embeds everything — no http:// or https:// references anywhere.
func TestTimelineHTMLSelfContained(t *testing.T) {
	tr, _, _, err := OpenTraceFileParallel(filepath.Join(corpusDir, "coarse.ktr"), 4)
	if err != nil {
		t.Fatalf("fixture missing (run go test . -update): %v", err)
	}
	x := tr.ExportTimelineRange(tr.Span())
	x.Label = "coarse.ktr"
	render := func() string {
		var b strings.Builder
		if err := WriteTimelineHTML(&b, "kmon coarse.ktr", x); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	h1, h2 := render(), render()
	if h1 != h2 {
		t.Error("HTML export is not deterministic across renders")
	}
	for _, sub := range []string{"http://", "https://"} {
		if strings.Contains(h1, sub) {
			t.Errorf("HTML export references the network: contains %q", sub)
		}
	}
	if !strings.Contains(h1, "const RUNS = ") || !strings.Contains(h1, "maskEpochs") {
		t.Error("HTML export does not embed the run data")
	}
}
