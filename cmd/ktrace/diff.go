package main

import (
	"fmt"
	"io"
	"path/filepath"

	tracediff "k42trace/internal/diff"
	"k42trace/internal/flagset"
)

// diff is the differential analyzer: it aligns two traces of "the same"
// workload — a coarse vs a tuned kernel, before vs after a fix — and
// reports where time went differently: per-mode occupancy deltas, per-CPU
// busy/lock shifts, lock-contention deltas keyed by acquisition chain,
// profile and per-process deltas, and a window-by-window divergence score.
// Identical inputs diff to exactly zero. Exit status 3 when -max-divergence
// is set and the measured divergence exceeds it (the CI regression gate).
func diff(stdout, stderr io.Writer, args []string) int {
	t := newTraceTool(stderr, "diff", "[flags] a.ktr b.ktr")
	top := flagset.New(t.fs, "top", 10, "rows per section in the text report", flagset.Min(1))
	windows := flagset.New(t.fs, "windows", 32, "aligned-range subdivisions for divergence scoring", columns)
	jsonOut := t.fs.Bool("json", false, "emit the full report as JSON instead of text")
	htmlPath := t.fs.String("html", "", "write the two aligned runs as a stacked interactive HTML timeline")
	maxDiv := flagset.New(t.fs, "max-divergence", -1, "exit 3 if divergence exceeds this (CI gate; -1 = off)", flagset.Min(0.0).Or(-1))
	var anchors stringList
	t.fs.Var(&anchors, "anchor", "event name to align the runs on (repeatable; default: mask epochs, else spans)")
	if code, ok := t.parse(args, 2); !ok {
		return code
	}
	pathA, pathB := t.fs.Arg(0), t.fs.Arg(1)
	ta, err := t.open(pathA)
	if err != nil {
		return t.status(err)
	}
	tb, err := t.open(pathB)
	if err != nil {
		return t.status(err)
	}

	rep := tracediff.Diff(ta.Trace, tb.Trace, tracediff.Options{
		Workers: t.jobs,
		Windows: *windows,
		Anchors: anchors,
		LabelA:  filepath.Base(pathA),
		LabelB:  filepath.Base(pathB),
	})

	if *jsonOut {
		err = rep.WriteJSON(stdout)
	} else {
		err = rep.Format(stdout, *top)
	}
	if err != nil {
		return t.status(err)
	}

	if *htmlPath != "" {
		xa := ta.ExportTimelineRange(rep.A.Start, rep.A.End, anchors...)
		xb := tb.ExportTimelineRange(rep.B.Start, rep.B.End, anchors...)
		xa.Label = rep.A.Label
		xb.Label = rep.B.Label
		title := fmt.Sprintf("tracediff %s vs %s", rep.A.Label, rep.B.Label)
		if err := writeHTML(*htmlPath, title, xa, xb); err != nil {
			return t.status(err)
		}
		fmt.Fprintf(stderr, "%s: wrote %s\n", t.name, *htmlPath)
	}

	if *maxDiv >= 0 && rep.Divergence > *maxDiv {
		fmt.Fprintf(stderr, "%s: divergence %.6f exceeds threshold %.6f\n",
			t.name, rep.Divergence, *maxDiv)
		return 3
	}
	return 0
}
