package main

import (
	"fmt"
	"io"

	ktrace "k42trace"
)

// check validates a trace file's structural invariants: per-CPU timestamp
// monotonicity, balanced syscall/PPC/page-fault/interrupt pairs, lock
// event pairing, event-registration coverage, and block-level anomalies.
// Exit status 1 on violations — suitable for CI over captured traces.
//
// With -salvage undecodable blocks are quarantined and reported instead of
// failing the run, a destroyed file header is recovered by scanning for
// block magics, and -o rewrites the surviving blocks as a clean trace file;
// the exit status is then 1 whenever anything was lost.
//
// With -shm the argument is a live shared-memory trace segment (owned by
// ktraced) instead of a trace file: check snapshots it through a read-only
// mapping — geometry, per-CPU fill and commit state, attached pids and
// lease ages — without stopping any producer.
func check(stdout, stderr io.Writer, args []string) int {
	t := newTraceTool(stderr, "check",
		"[-salvage [-o repaired.ktr]] [-j N] trace.ktr | ktrace check -shm segment")
	t.quiet = true
	out := t.fs.String("o", "", "with -salvage: rewrite the surviving blocks to this file")
	shmSeg := t.fs.Bool("shm", false, "argument is a live shared-memory segment: inspect it without stopping producers")
	if code, ok := t.parse(args, 1); !ok {
		return code
	}
	path := t.fs.Arg(0)
	if *shmSeg {
		info, err := ktrace.InspectShmSegment(path)
		if err != nil {
			return t.status(err)
		}
		info.Format(stdout)
		return 0
	}
	trace, err := t.open(path)
	if err != nil {
		return t.status(err)
	}
	if rep := trace.salvage; rep != nil {
		rep.Format(stdout)
		trace.Validate().Format(stdout)
		if *out != "" {
			if _, err := ktrace.SalvageTraceFileTo(path, *out, t.jobs); err != nil {
				return t.status(err)
			}
			fmt.Fprintf(stdout, "rewrote %d surviving blocks to %s\n", rep.BlocksGood, *out)
		}
		if !rep.Clean() {
			return 1 // data was lost; scripts should notice
		}
		return 0
	}
	rep := trace.Validate()
	rep.Format(stdout)
	if trace.stats.Garbled() {
		fmt.Fprintf(stdout, "decode skipped %d garbled words\n", trace.stats.SkippedWords)
	}
	if !rep.OK() || trace.stats.Garbled() {
		return 1
	}
	fmt.Fprintln(stdout, "trace is structurally sound")
	return 0
}
