package main

import (
	"fmt"
	"io"
	"os"

	ktrace "k42trace"
	"k42trace/internal/core"
	"k42trace/internal/ksim"
	"k42trace/internal/sdet"
)

// crashdump implements the post-mortem tool the paper called for (§4.2):
// when a crashed system cannot run the debugger's dump hook, the raw trace
// memory (per-CPU arrays, indexes, commit counts) saved in a crash-dump
// image is decoded offline into the most recent activity per CPU, with
// commit-count anomaly checks for events lost in the crash.
//
//	ktrace crashdump -demo crash.kcd      # produce a demo dump from a traced run
//	ktrace crashdump crash.kcd            # decode and list a dump
func crashdump(stdout, stderr io.Writer, args []string) int {
	t := newTool(stderr, "crashdump", "[-demo] file.kcd")
	demo := t.fs.Bool("demo", false, "generate a demonstration dump from a traced SDET run instead of reading one")
	tail := t.fs.Int("tail", 12, "events to list per CPU")
	if code, ok := t.parse(args, 1); !ok {
		return code
	}
	path := t.fs.Arg(0)
	if *demo {
		if err := writeDemoDump(path); err != nil {
			return t.status(err)
		}
		fmt.Fprintf(stdout, "wrote demo crash dump to %s\n", path)
		return 0
	}
	f, err := os.Open(path)
	if err != nil {
		return t.status(err)
	}
	defer f.Close()
	d, err := core.ReadCrashDump(f)
	if err != nil {
		return t.status(err)
	}
	fmt.Fprintf(stdout, "crash dump: %d CPUs, %d x %d-word buffers, clock %dHz\n",
		d.CPUs, d.NumBufs, d.BufWords, d.ClockHz)
	for cpu := 0; cpu < d.CPUs; cpu++ {
		evs, info, err := d.Events(cpu)
		if err != nil {
			return t.status(err)
		}
		fmt.Fprintf(stdout, "\n--- cpu %d: %d events in %d resident buffers; garbled words %d; anomalies %d ---\n",
			cpu, len(evs), info.Buffers, info.Stats.SkippedWords, info.Anomalies)
		if len(evs) > *tail {
			evs = evs[len(evs)-*tail:]
		}
		trace := ktrace.BuildTrace(evs, d.ClockHz, ktrace.DefaultRegistry())
		trace.List(stdout, ktrace.ListOptions{})
	}
	return 0
}

// writeDemoDump runs a small traced SDET workload and saves its trace
// memory as a crash-dump image at path.
func writeDemoDump(path string) error {
	k, tr, err := ksim.NewTracedKernel(
		ksim.Config{CPUs: 2, Tuned: false, SamplePeriod: 200_000},
		ktrace.Config{BufWords: 1024, NumBufs: 4})
	if err != nil {
		return err
	}
	tr.EnableAll()
	if _, err := k.Run(sdet.Workload(2, sdet.Params{ScriptsPerCPU: 2, CommandsPerScript: 3, Seed: 3})); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.WriteCrashDump(f)
}
