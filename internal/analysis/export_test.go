package analysis

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"k42trace/internal/event"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// sdetTraceEpochs produces a traced SDET run with two mid-run mask changes,
// so the export and occupancy tests cover mask-epoch handling.
func sdetTraceEpochs(t *testing.T) *Trace {
	t.Helper()
	var buf bytes.Buffer
	cfg := sdet.Config{CPUs: 4, Trace: sdet.TraceOn,
		Params: sdet.Params{ScriptsPerCPU: 3, CommandsPerScript: 4, Seed: 9},
		Sample: 50_000,
		MaskChanges: []sdet.MaskChange{
			{AtNs: 300_000, Mask: ^uint64(0) &^ event.MajorSample.Bit()},
			{AtNs: 600_000, Mask: ^uint64(0)},
		}}
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
	return Build(evs, rd.Meta().ClockHz, event.Default)
}

// TestOccupancyPartition proves the window accounting is an exact
// partition: for every window count, the windowed time and the per-CPU
// time both sum to the same per-mode totals — no nanosecond is dropped or
// double-counted at window boundaries. (Total coverage is bounded by, but
// not equal to, span * CPUs: a CPU's stream covers only its first..last
// event.)
func TestOccupancyPartition(t *testing.T) {
	tr := sdetTraceEpochs(t)
	first, last := tr.Span()
	// Offset ends so windows don't divide the span evenly.
	from, to := first+137, last-251
	for _, windows := range []int{1, 7, 32, 1000} {
		o := tr.OccupancyRange(from, to, windows)
		var winSum, modeSum [NumModes]uint64
		for _, wm := range o.WindowMode {
			for m, ns := range wm {
				winSum[m] += ns
			}
		}
		var cpuTotal uint64
		for _, cm := range o.CPUMode {
			for m, ns := range cm {
				modeSum[m] += ns
				cpuTotal += ns
			}
		}
		if winSum != o.ModeNs || modeSum != o.ModeNs {
			t.Errorf("windows=%d: partition mismatch\nwindows: %v\ncpus:    %v\ntotal:   %v",
				windows, winSum, modeSum, o.ModeNs)
		}
		if max := (to - from) * uint64(len(o.CPUMode)); cpuTotal == 0 || cpuTotal > max {
			t.Errorf("windows=%d: accounted %d ns, want in (0, %d]", windows, cpuTotal, max)
		}
	}
}

// TestOccupancyParallelMatchesSequential pins the parallel form to the
// sequential walk for every worker count.
func TestOccupancyParallelMatchesSequential(t *testing.T) {
	tr := sdetTraceEpochs(t)
	first, last := tr.Span()
	seq := tr.OccupancyRange(first, last+1, 32)
	if seq.totalNs() == 0 || seq.Events == 0 {
		t.Fatalf("degenerate baseline: total=%d events=%d", seq.totalNs(), seq.Events)
	}
	for _, w := range workerCounts {
		if got := tr.OccupancyRangeParallel(first, last+1, 32, w); !reflect.DeepEqual(got, seq) {
			t.Errorf("workers=%d: parallel occupancy differs from sequential", w)
		}
	}
}

// TestExportTimeline checks the exact-span export: spans tile each CPU's
// covered time in order without overlap, consecutive spans never share
// (mode, pid) — they would have been coalesced — and the epochs and JSON
// rendering behave as documented.
func TestExportTimeline(t *testing.T) {
	tr := sdetTraceEpochs(t)
	first, last := tr.Span()
	x := tr.ExportTimelineRange(first, last, "TRC_USER_RUN_UL_LOADER")
	if len(x.CPUs) == 0 {
		t.Fatal("no CPUs exported")
	}
	for cpu, spans := range x.CPUs {
		for i, s := range spans {
			if s.To <= s.From {
				t.Fatalf("cpu%d span %d: empty or inverted [%d, %d)", cpu, i, s.From, s.To)
			}
			if s.From < x.Start || s.To > x.End {
				t.Fatalf("cpu%d span %d: outside exported range", cpu, i)
			}
			if i == 0 {
				continue
			}
			prev := spans[i-1]
			if s.From < prev.To {
				t.Fatalf("cpu%d span %d overlaps predecessor", cpu, i)
			}
			if s.From == prev.To && s.Mode == prev.Mode && s.Pid == prev.Pid {
				t.Fatalf("cpu%d span %d: uncoalesced repeat of (mode=%d pid=%d)", cpu, i, s.Mode, s.Pid)
			}
		}
	}
	if len(x.MaskEpochs) == 0 {
		t.Error("mask epochs not exported")
	}
	for _, ep := range x.MaskEpochs {
		if ep.Time < x.Start || ep.Time > x.End {
			t.Errorf("epoch at %d outside [%d, %d]", ep.Time, x.Start, x.End)
		}
	}
	if len(x.ModeNames) != NumModes || len(x.ModeColors) != NumModes {
		t.Errorf("mode space incomplete: %d names, %d colors", len(x.ModeNames), len(x.ModeColors))
	}
	b1, err := x.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := x.JSON()
	if !bytes.Equal(b1, b2) {
		t.Error("JSON export not deterministic")
	}

	// The zoomed export must clip spans to the window.
	mid := x.Start + (x.End-x.Start)/2
	z := tr.ExportTimelineRange(x.Start, mid)
	for cpu, spans := range z.CPUs {
		for i, s := range spans {
			if s.From < z.Start || s.To > z.End {
				t.Fatalf("zoom cpu%d span %d not clipped to window", cpu, i)
			}
		}
	}
}

// TestTimelineSVGEpochLines checks the satellite: the SVG rendering marks
// mask-change epochs with dashed lines.
func TestTimelineSVGEpochLines(t *testing.T) {
	tr := sdetTraceEpochs(t)
	if len(tr.MaskEpochs) == 0 {
		t.Fatal("trace has no mask epochs")
	}
	svg := tr.Timeline(100).SVG()
	if !strings.Contains(svg, "stroke-dasharray") {
		t.Error("SVG has no dashed epoch lines")
	}
	if got := strings.Count(svg, `stroke="#7a5fb5"`); got != len(tr.MaskEpochs) {
		t.Errorf("SVG draws %d epoch lines, trace has %d epochs", got, len(tr.MaskEpochs))
	}
}
