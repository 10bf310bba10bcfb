// Command ktrace is the offline front end onto a trace: one binary whose
// verbs are the paper's generic tools over the one self-describing format
// (§1 points 6–7). Every verb that reads a trace file takes -j (decode and
// analysis workers; output is identical for every count) and -salvage
// (read a damaged file forgivingly) from the same opener.
//
// Usage:
//
//	ktrace <verb> [flags] file...
//
// Exit status: 0 on success, 1 on an error or a finding (a lock-order
// cycle, a validation failure, an unclean salvage), 2 on usage — a value
// outside its flag's domain (internal/flagset) among them, refused before
// the file is read — and 3 from diff when -max-divergence is exceeded.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	ktrace "k42trace"
	"k42trace/internal/flagset"
)

// verbs is the dispatch table, in the order the usage message lists them.
var verbs = []struct {
	name  string
	run   func(stdout, stderr io.Writer, args []string) int
	about string
}{
	{"lockstat", lockstat, "lock contention by (lock, call chain, domain) — Figure 7"},
	{"timebreak", timebreak, "where one process's time went, or the per-process overview — Figure 8"},
	{"profbreak", profbreak, "statistical execution profile from PC samples — Figure 6"},
	{"memhot", memhot, "cache and coherence misses by symbol from counter samples — §2"},
	{"lockorder", lockorder, "lock-order cycles with witness call chains — §4.2"},
	{"list", list, "textual event listing — Figure 5"},
	{"stat", stat, "geometry, span, event counts, anomalies, overview: the first look"},
	{"kmon", kmon, "per-CPU timeline as text, SVG or interactive HTML — Figure 4"},
	{"check", check, "structural invariants; -salvage repairs, -shm inspects a live segment"},
	{"diff", diff, "align two runs and report where time went differently"},
	{"crashdump", crashdump, "the last events per CPU of a flight-recorder dump — §4.2"},
}

func main() { os.Exit(run(os.Stdout, os.Stderr, os.Args[1:])) }

// run dispatches args[0] to its verb and returns the exit status.
func run(stdout, stderr io.Writer, args []string) int {
	if len(args) > 0 {
		for _, v := range verbs {
			if v.name == args[0] {
				return v.run(stdout, stderr, args[1:])
			}
		}
		fmt.Fprintf(stderr, "ktrace: unknown verb %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: ktrace <verb> [flags] file...")
	for _, v := range verbs {
		fmt.Fprintf(stderr, "  %-10s %s\n", v.name, v.about)
	}
	return 2
}

// columns is the domain of kmon's -width and diff's -windows: each column
// holds a per-mode accumulator for every CPU, and a count far past any
// screen's or chart's width would otherwise be allocated before it could be
// refused.
var columns = flagset.In(1, 1<<16)

// tool is the preamble the verbs share: a flag set, usage and error
// reporting under the "ktrace <verb>:" prefix, and the one trace opener.
type tool struct {
	name, synopsis string // "ktrace list", "[flags] trace.ktr"
	fs             *flag.FlagSet
	stderr         io.Writer

	jobs    int  // -j
	salvage bool // -salvage
	// quiet stops open from warning on stderr about decode damage; check
	// sets it because both of its paths account for the damage on stdout.
	quiet bool
}

func newTool(stderr io.Writer, verb, synopsis string) *tool {
	t := &tool{name: "ktrace " + verb, synopsis: synopsis, stderr: stderr}
	t.fs = flag.NewFlagSet(t.name, flag.ContinueOnError)
	t.fs.SetOutput(stderr)
	t.fs.Usage = func() { t.usage() }
	return t
}

// newTraceTool is newTool for a verb that reads trace files: it declares
// the two flags open honours.
func newTraceTool(stderr io.Writer, verb, synopsis string) *tool {
	t := newTool(stderr, verb, synopsis)
	flagset.Var(t.fs, &t.jobs, "j", 0, "decode/analysis workers (0 = all cores)", flagset.Min(0))
	t.fs.BoolVar(&t.salvage, "salvage", false, "read forgivingly: quarantine bad blocks instead of failing")
	return t
}

// usage prints the synopsis and the flags, and returns the usage status.
func (t *tool) usage() int {
	fmt.Fprintf(t.stderr, "usage: %s %s\n", t.name, t.synopsis)
	t.fs.PrintDefaults()
	return 2
}

// parse parses args and requires exactly nargs operands. When ok is false
// the verb returns code without running.
func (t *tool) parse(args []string, nargs int) (code int, ok bool) {
	if code, ok := flagset.Parse(t.fs, args); !ok {
		return code, false
	}
	if t.fs.NArg() != nargs {
		return t.usage(), false
	}
	return 0, true
}

// status is the exit status after a step that returned err: 0, or 1 with
// err reported.
func (t *tool) status(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(t.stderr, "%s: %v\n", t.name, err)
	return 1
}

// load is parse and open for the verbs that take one trace file and nothing
// else before reading it; a nil input means return code.
func (t *tool) load(args []string) (in *input, code int) {
	if code, ok := t.parse(args, 1); !ok {
		return nil, code
	}
	in, err := t.open(t.fs.Arg(0))
	return in, t.status(err)
}

// input is an opened trace file: the merged trace plus what its reader
// learned about the file.
type input struct {
	*ktrace.Trace
	meta    ktrace.TraceMeta
	stats   ktrace.DecodeStats
	salvage *ktrace.SalvageReport // nil unless -salvage
}

// open reads the trace at path on t.jobs workers, strictly or, under
// -salvage, forgivingly. Decode damage that did not fail the read is
// warned about here, for every verb.
func (t *tool) open(path string) (*input, error) {
	if t.salvage {
		tr, rep, err := ktrace.SalvageTraceFile(path, t.jobs)
		if err != nil {
			return nil, err
		}
		if len(rep.Skipped) > 0 && !t.quiet {
			fmt.Fprintf(t.stderr, "%s: %s: %d blocks quarantined\n", t.name, path, len(rep.Skipped))
		}
		return &input{tr, rep.Meta, rep.Stats, rep}, nil
	}
	tr, meta, st, err := ktrace.OpenTraceFileParallel(path, t.jobs)
	if err != nil {
		return nil, err
	}
	if st.Garbled() && !t.quiet {
		fmt.Fprintf(t.stderr, "%s: %s: warning: %d garbled words skipped\n", t.name, path, st.SkippedWords)
	}
	return &input{tr, meta, st, nil}, nil
}

// ticks converts seconds to trace ticks at the rate the trace prints its
// times with — trace.ClockHz, which is never zero, not the raw header
// field, which a salvage rewrite after a destroyed header records as zero.
func (in *input) ticks(seconds float64) uint64 {
	return uint64(seconds * float64(in.ClockHz))
}

// writeHTML writes runs as one self-contained interactive timeline page.
func writeHTML(path, title string, runs ...*ktrace.TimelineExport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = ktrace.WriteTimelineHTML(f, title, runs...)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
