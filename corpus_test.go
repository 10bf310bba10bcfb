package ktrace

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"k42trace/internal/analysis"
	"k42trace/internal/faultinject"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

var updateCorpus = flag.Bool("update", false,
	"regenerate the golden trace corpus under testdata/corpus")

const corpusDir = "testdata/corpus"

// corpusWorkerCounts: the golden outputs must be byte-identical at both.
var corpusWorkerCounts = []int{1, 8}

// buildCorpusSources generates the two clean source traces: a standard
// SDET run with both samplers, and a threaded run whose processes migrate
// and perform IO across CPUs (threads log in parallel from whichever CPU
// schedules them, so per-process event streams interleave across blocks).
func buildCorpusSources(t testing.TB) (clean, crossIO []byte) {
	t.Helper()
	var a, b bytes.Buffer
	if _, err := sdet.Run(sdet.Config{CPUs: 4, Trace: sdet.TraceOn,
		Params: sdet.Params{ScriptsPerCPU: 8, CommandsPerScript: 10, Seed: 42},
		Sample: 10_000, HWCSample: 10_000}, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := sdet.Run(sdet.Config{CPUs: 4, Trace: sdet.TraceOn,
		Params: sdet.Params{ScriptsPerCPU: 6, CommandsPerScript: 8, Threads: true, Seed: 7},
		Sample: 12_000, IRQPeriod: 40_000}, &b); err != nil {
		t.Fatal(err)
	}
	return a.Bytes(), b.Bytes()
}

// buildDiffPair generates the canonical tracediff fixture pair: the same
// SDET workload (same scripts, same seed, same samplers, same mid-run mask
// changes) on the coarse (global-lock) and tuned (per-CPU) kernels. The
// coarse kernel's lock contention is the planted regression tracediff must
// surface; the mask changes plant TRACE_CTRL_MASK_CHANGE epochs at the
// same virtual instants in both runs, which tracediff uses as alignment
// anchors.
func buildDiffPair(t testing.TB) (coarse, tuned []byte) {
	t.Helper()
	masks := []sdet.MaskChange{
		{AtNs: 800_000, Mask: ^uint64(0) &^ (MajorSample.Bit() | MajorAlloc.Bit())},
		{AtNs: 1_400_000, Mask: ^uint64(0)},
	}
	gen := func(tunedKernel bool) []byte {
		var b bytes.Buffer
		if _, err := sdet.Run(sdet.Config{CPUs: 8, Tuned: tunedKernel, Trace: sdet.TraceOn,
			Params:    sdet.Params{ScriptsPerCPU: 4, CommandsPerScript: 6, Seed: 11},
			Sample:    15_000,
			IRQPeriod: 50_000, MaskChanges: masks}, &b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	return gen(false), gen(true)
}

// TestDiffPairRecipe pins the recipe to the fixture: the pair is virtual
// time end to end, so generating it again gives the checked-in bytes, on any
// host. cmd/sdet writes the same bytes (the first mask is everything but
// the sample and alloc majors, as a literal, because the marker records the
// mask word):
//
//	sdet -cpus 8 -scripts 4 -cmds 6 -seed 11 -sample 15000 -irq 50000 \
//	    -mask-at 800000=0xfffffffffffff3ff -mask-at 1400000=all \
//	    -config coarse|tuned -o <file>
func TestDiffPairRecipe(t *testing.T) {
	coarse, tuned := buildDiffPair(t)
	for name, data := range map[string][]byte{"coarse.ktr": coarse, "tuned.ktr": tuned} {
		want, err := os.ReadFile(filepath.Join(corpusDir, name))
		if err != nil {
			t.Fatalf("fixture missing (run go test . -update): %v", err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("buildDiffPair no longer reproduces %s (%d bytes against %d checked in)", name, len(data), len(want))
		}
	}
}

// garbleCorpus applies the corpus damage recipe to the clean trace and
// returns the damaged image plus the indices of the fully quarantined
// (magic-destroyed) blocks. The recipe is pure function of the input, so
// tests can re-derive what was damaged without side-channel files.
func garbleCorpus(t testing.TB, clean []byte) (data []byte, quarantined []int) {
	t.Helper()
	im, err := faultinject.OpenImage(clean, 77)
	if err != nil {
		t.Fatal(err)
	}
	n := im.NumBlocks()
	quarantined = []int{1, n / 2}
	for _, k := range quarantined {
		im.CorruptBlockMagic(k)
	}
	// Distinct blocks from the quarantined ones, and early in the file so
	// they land in full (not flush-time partial) blocks: these stay
	// readable but decode with skipped words where events were destroyed.
	im.FlipPayloadBits(2, 5)
	im.ZeroPayload(0, 40)
	return im.Bytes(), quarantined
}

func truncateCorpus(t testing.TB, clean []byte) []byte {
	t.Helper()
	im, err := faultinject.OpenImage(clean, 78)
	if err != nil {
		t.Fatal(err)
	}
	im.TruncateMidFinalBlock()
	return im.Bytes()
}

// analysisReports runs all five analyses at the given worker count, plus the
// kmon timeline (whole trace, ASCII and SVG, then a zoom into its second
// quarter), and returns their formatted output keyed by report name.
func analysisReports(tr *Trace, w int) map[string]string {
	whole := tr.Timeline(100, "TRC_USER_RUN_UL_LOADER")
	first, last := tr.Span()
	zoom := tr.TimelineRange(first+(last-first)/4, first+(last-first)/2, 60, "TRC_USER_RUN_UL_LOADER")
	over := tr.OverviewParallel(w)
	var pids []uint64
	for _, row := range over {
		pids = append(pids, row.Pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	var tb strings.Builder
	for _, pid := range pids {
		fmt.Fprintf(&tb, "== pid %d ==\n%s\n", pid, tr.TimeBreakParallel(pid, w).String())
	}
	return map[string]string{
		"lock":      tr.LockStatParallel(w).String(),
		"profile":   tr.ProfileParallel(^uint64(0), w).String(),
		"overview":  overviewText(over),
		"timebreak": tb.String(),
		"mem":       tr.MemProfileParallel(w).String(),
		"kmon":      whole.ASCII() + whole.SVG() + zoom.ASCII(),
	}
}

// TestGoldenCorpus pins the whole consumer stack byte-for-byte: every
// corpus trace (clean, garbled, truncated, cross-CPU IO) is salvaged and
// analyzed at 1 and 8 workers, the two runs must agree exactly, and the
// result must match the checked-in .golden files. Run with -update to
// regenerate corpus and goldens together.
func TestGoldenCorpus(t *testing.T) {
	if *updateCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		clean, crossIO := buildCorpusSources(t)
		garbled, _ := garbleCorpus(t, clean)
		coarse, tuned := buildDiffPair(t)
		for name, data := range map[string][]byte{
			"clean.ktr":       clean,
			"crosscpu-io.ktr": crossIO,
			"garbled.ktr":     garbled,
			"truncated.ktr":   truncateCorpus(t, clean),
			"coarse.ktr":      coarse,
			"tuned.ktr":       tuned,
		} {
			if err := os.WriteFile(filepath.Join(corpusDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.ktr"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus traces in %s (run go test . -update): %v", corpusDir, err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".ktr")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var base map[string]string
			var baseSalvage string
			for i, w := range corpusWorkerCounts {
				evs, rep, err := Salvage(bytes.NewReader(data), int64(len(data)), w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				tr := BuildTrace(evs, rep.Meta.ClockHz, DefaultRegistry())
				reports := analysisReports(tr, w)
				reports["salvage"] = rep.String()
				if i == 0 {
					base, baseSalvage = reports, rep.String()
					continue
				}
				if rep.String() != baseSalvage {
					t.Errorf("workers=%d: salvage report differs from workers=%d",
						w, corpusWorkerCounts[0])
				}
				for k, v := range reports {
					if v != base[k] {
						t.Errorf("workers=%d: %s report differs from workers=%d",
							w, k, corpusWorkerCounts[0])
					}
				}
			}
			for k, v := range base {
				golden := filepath.Join(corpusDir, name+"."+k+".golden")
				if *updateCorpus {
					if err := os.WriteFile(golden, []byte(v), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("golden missing (run go test . -update): %v", err)
				}
				if v != string(want) {
					t.Errorf("%s output diverged from %s", k, golden)
				}
			}
		})
	}
}

// TestCorpusSalvageExactCounts proves the acceptance claim with block
// arithmetic: destroy exactly three block magics in the clean corpus
// trace, and salvage must quarantine exactly those blocks, lose exactly
// their events, and recover every event outside them bit-for-bit.
func TestCorpusSalvageExactCounts(t *testing.T) {
	clean, err := os.ReadFile(filepath.Join(corpusDir, "clean.ktr"))
	if err != nil {
		t.Fatalf("corpus missing (run go test . -update): %v", err)
	}
	rd, err := stream.NewReader(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	cleanEvs, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	n := rd.NumBlocks()
	if n < 8 {
		t.Fatalf("corpus trace has %d blocks; the recipe needs >= 8 distinct targets", n)
	}
	qs := []int{1, n / 2, n - 2}
	im, err := faultinject.OpenImage(clean, 99)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	quarantined := map[int]bool{}
	for _, k := range qs {
		im.CorruptBlockMagic(k)
		evs, _, err := rd.Events(k)
		if err != nil {
			t.Fatal(err)
		}
		lost += len(evs)
		quarantined[k] = true
	}
	if lost == 0 {
		t.Fatal("chosen blocks hold no events; corpus too small")
	}
	data := im.Bytes()
	evs, rep, err := Salvage(bytes.NewReader(data), int64(len(data)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksSkipped != len(qs) {
		t.Fatalf("quarantined %d blocks, want exactly %d:\n%s", rep.BlocksSkipped, len(qs), rep)
	}
	for _, bad := range rep.Skipped {
		if !quarantined[bad.Block] {
			t.Errorf("block %d quarantined but never damaged (%s)", bad.Block, bad.Cause)
		}
	}
	if got := len(cleanEvs) - len(evs); got != lost {
		t.Errorf("lost %d events, the %d quarantined blocks held %d", got, len(qs), lost)
	}
	// Every surviving event must match the clean trace restricted to the
	// surviving blocks — same bytes, same order.
	var out bytes.Buffer
	wr, err := stream.NewWriter(&out, rd.Meta())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if quarantined[k] {
			continue
		}
		h, words, err := rd.Block(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := wr.WriteBlock(h, words); err != nil {
			t.Fatal(err)
		}
	}
	srd, err := stream.NewReader(bytes.NewReader(out.Bytes()), int64(out.Len()))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := srd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(want) {
		t.Fatalf("salvaged %d events, survivor blocks hold %d", len(evs), len(want))
	}
	for i := range evs {
		if evs[i].Header != want[i].Header || evs[i].Time != want[i].Time ||
			evs[i].CPU != want[i].CPU {
			t.Fatalf("event %d differs from survivor baseline", i)
		}
	}
}

// overviewText is the overview table FormatOverview writes.
func overviewText(rows []analysis.ProcSummary) string {
	var b strings.Builder
	analysis.FormatOverview(&b, rows)
	return b.String()
}
