package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	ktrace "k42trace"
	"k42trace/internal/analysis"
	"k42trace/internal/event"
	"k42trace/internal/flagset"
	"k42trace/internal/stream"
)

// list prints a trace file as a textual event listing — the paper's
// Figure 5 tool: time in seconds, event name, and the event's
// self-described rendering.
func list(stdout, stderr io.Writer, args []string) int {
	t := newTraceTool(stderr, "list", "[flags] trace.ktr")
	majors := flagset.New(t.fs, "major", "", "comma-separated major classes to include (e.g. SCHED,LOCK); empty = all", flagset.Parses("major names", parseMajors))
	from := flagset.New(t.fs, "from", 0.0, "start of time window, seconds", flagset.Min(0.0))
	to := flagset.New(t.fs, "to", 0.0, "end of time window, seconds (0 = end of trace)", flagset.Min(0.0))
	limit := flagset.New(t.fs, "n", 0, "maximum lines (0 = unlimited)", flagset.Min(0))
	control := t.fs.Bool("control", false, "include infrastructure events (anchors, fillers metadata)")
	pid := flagset.New(t.fs, "pid", -1, "only events while this process was scheduled (-1 = all)", flagset.Min[int64](0).Or(-1))
	cpu := flagset.New(t.fs, "cpu", -1, "only events from this processor (-1 = all)", flagset.Min(0).Or(-1))
	trace, code := t.load(args)
	if trace == nil {
		return code
	}
	only, _ := parseMajors(*majors)
	opt := ktrace.ListOptions{
		Majors:      only,
		Limit:       *limit,
		ShowControl: *control,
		From:        trace.ticks(*from),
		To:          trace.ticks(*to),
	}
	if *pid >= 0 {
		opt.HasPid = true
		opt.Pid = uint64(*pid)
	}
	if *cpu >= 0 {
		opt.HasCPU = true
		opt.CPU = *cpu
	}
	_, err := trace.List(stdout, opt)
	return t.status(err)
}

// parseMajors reads a -major list: comma-separated class names, or none.
func parseMajors(s string) (only []event.Major, err error) {
	if s == "" {
		return nil, nil
	}
	for _, name := range strings.Split(s, ",") {
		m, ok := event.ParseMajor(name)
		if !ok {
			return nil, fmt.Errorf("unknown major %q", name)
		}
		only = append(only, m)
	}
	return only, nil
}

// stat summarizes a trace file: geometry, time span, event counts per
// major class and per CPU, event rates, anomalous blocks, and the
// per-process time overview. The quick first look before reaching for the
// specialized verbs.
func stat(stdout, stderr io.Writer, args []string) int {
	t := newTraceTool(stderr, "stat", "[flags] trace.ktr")
	trace, code := t.load(args)
	if trace == nil {
		return code
	}
	path, meta := t.fs.Arg(0), trace.meta
	anoms, err := trace.anomalies(path)
	if err != nil {
		return t.status(err)
	}
	fmt.Fprintf(stdout, "%s: %d CPUs, %d-word buffers (%d KiB alignment), clock %d Hz\n",
		path, meta.CPUs, meta.BufWords, meta.BufWords*8/1024, meta.ClockHz)
	first, last := trace.Span()
	span := trace.Seconds(last) - trace.Seconds(first)
	fmt.Fprintf(stdout, "span: %.6fs .. %.6fs (%.6fs)\n",
		trace.Seconds(first), trace.Seconds(last), span)

	var byMajor [ktrace.NumMajors]int
	byCPU := map[int]int{}
	total := len(trace.Events)
	for i := range trace.Events {
		e := &trace.Events[i]
		byMajor[e.Major()]++
		byCPU[e.CPU]++
	}
	rate := 0.0
	if span > 0 {
		rate = float64(total) / span
	}
	fmt.Fprintf(stdout, "events: %d (%.0f events/sec)", total, rate)
	if trace.stats.Garbled() {
		fmt.Fprintf(stdout, "; %d garbled words skipped", trace.stats.SkippedWords)
	}
	fmt.Fprintln(stdout)

	var majors []ktrace.Major
	for m, n := range byMajor {
		if n > 0 {
			majors = append(majors, ktrace.Major(m))
		}
	}
	// Stable, so classes with equal counts stay in class order.
	sort.SliceStable(majors, func(i, j int) bool { return byMajor[majors[i]] > byMajor[majors[j]] })
	fmt.Fprintln(stdout, "\nevents by major class:")
	for _, m := range majors {
		fmt.Fprintf(stdout, "  %-10s %8d (%5.1f%%)\n", m, byMajor[m], 100*float64(byMajor[m])/float64(total))
	}
	fmt.Fprintln(stdout, "\nevents by CPU:")
	for cpu := 0; cpu < meta.CPUs; cpu++ {
		fmt.Fprintf(stdout, "  cpu%-3d %8d\n", cpu, byCPU[cpu])
	}

	if len(anoms) > 0 {
		fmt.Fprintf(stdout, "\nanomalous blocks (commit-count mismatches): %d\n", len(anoms))
		for _, h := range anoms {
			fmt.Fprintf(stdout, "  cpu %d seq %d: committed %d of %d words\n",
				h.CPU, h.Seq, h.Committed, h.NWords)
		}
	}

	fmt.Fprintln(stdout, "\nper-process time overview:")
	rows := trace.OverviewParallel(t.jobs)
	if len(rows) > 12 {
		rows = rows[:12]
	}
	analysis.FormatOverview(stdout, rows)
	return 0
}

// anomalies returns the headers of the blocks in the trace file at path
// that their writer flagged anomalous: under -salvage from the tolerant
// scan that opened it, otherwise from the strict reader's header scan.
func (in *input) anomalies(path string) ([]stream.BlockHeader, error) {
	if in.salvage != nil {
		return in.salvage.Anomalous, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	rd, err := stream.NewReader(f, fi.Size())
	if err != nil {
		return nil, err
	}
	return rd.Anomalies()
}

type stringList []string

func (l *stringList) String() string     { return fmt.Sprint(*l) }
func (l *stringList) Set(s string) error { *l = append(*l, s); return nil }

// kmon is the paper's Figure 4 graphical viewing tool, rendered for
// terminals, SVG and HTML: a per-CPU timeline giving "a visual sense of
// what is occurring in the system and how active the system is", with
// selected events marked along it. It also prints the click-to-list view:
// the events around a chosen instant (Figure 5's listing scoped to a
// window).
func kmon(stdout, stderr io.Writer, args []string) int {
	t := newTraceTool(stderr, "kmon", "[flags] trace.ktr")
	width := flagset.New(t.fs, "width", 100, "timeline width in columns", columns)
	svgPath := t.fs.String("svg", "", "also write an SVG rendering to this path")
	htmlPath := t.fs.String("html", "", "also write a self-contained interactive HTML timeline to this path")
	seconds := flagset.Min(0.0).Or(-1) // a time, or -1 for none
	zoomFrom := flagset.New(t.fs, "from", -1, "zoom: window start, seconds", seconds)
	zoomTo := flagset.New(t.fs, "to", -1, "zoom: window end, seconds", seconds)
	at := flagset.New(t.fs, "at", -1, "list events around this time (seconds), like clicking the timeline", seconds)
	around := flagset.New(t.fs, "around", 2.0, "window size for -at, milliseconds", flagset.Over(0.0))
	var marks stringList
	t.fs.Var(&marks, "mark", "event name to mark on the timeline (repeatable)")
	trace, code := t.load(args)
	if trace == nil {
		return code
	}
	lo, hi := trace.Span() // the whole run, unless -from/-to zoom in
	if *zoomFrom >= 0 && *zoomTo > *zoomFrom {
		lo, hi = trace.ticks(*zoomFrom), trace.ticks(*zoomTo)
	}
	tl := trace.TimelineRange(lo, hi, *width, marks...)
	fmt.Fprint(stdout, tl.ASCII())
	for cpu, u := range tl.Utilization() {
		fmt.Fprintf(stdout, "cpu%-3d utilization %5.1f%%\n", cpu, u*100)
	}
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(tl.SVG()), 0o644); err != nil {
			return t.status(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *svgPath)
	}
	if *htmlPath != "" {
		x := trace.ExportTimelineRange(lo, hi, marks...)
		x.Label = filepath.Base(t.fs.Arg(0))
		if err := writeHTML(*htmlPath, "kmon "+x.Label, x); err != nil {
			return t.status(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *htmlPath)
	}
	if *at >= 0 {
		center := trace.ticks(*at)
		half := trace.ticks(*around/2) / 1000 // -around is in milliseconds
		fmt.Fprintf(stdout, "\nevents around %.6fs:\n", *at)
		trace.List(stdout, ktrace.ListOptions{From: center - min(center, half), To: center + half, Limit: 50})
	}
	return 0
}
