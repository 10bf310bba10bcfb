package main

import (
	"fmt"
	"io"
	"os"

	ktrace "k42trace"
	"k42trace/internal/flagset"
	"k42trace/internal/ksim"
	"k42trace/internal/sdet"
)

// crashdump implements the post-mortem tool the paper called for (§4.2):
// when a crashed system cannot run the debugger's dump hook, the flight
// recorder's resident buffers, saved as an ordinary trace file, are read
// offline into the most recent activity per CPU, with the commit-count
// anomalies that mark events lost in the crash. Every other verb reads the
// same dump.
//
//	ktrace crashdump -demo crash.ktr      # produce a demo dump from a traced run
//	ktrace crashdump crash.ktr            # list a dump's last events per CPU
func crashdump(stdout, stderr io.Writer, args []string) int {
	t := newTraceTool(stderr, "crashdump", "[-demo] [flags] crash.ktr")
	demo := t.fs.Bool("demo", false, "generate a demonstration dump from a traced SDET run instead of reading one")
	tail := flagset.New(t.fs, "tail", 12, "events to list per CPU", flagset.Min(0))
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
	trace, err := t.open(path)
	if err != nil {
		return t.status(err)
	}
	anoms, err := trace.anomalies(path)
	if err != nil {
		return t.status(err)
	}
	meta := trace.meta
	fmt.Fprintf(stdout, "crash dump: %d CPUs, %d-word buffers, clock %dHz\n", meta.CPUs, meta.BufWords, meta.ClockHz)
	byCPU := make([][]ktrace.Event, meta.CPUs)
	for _, e := range trace.Events {
		byCPU[e.CPU] = append(byCPU[e.CPU], e)
	}
	anomalous := make([]int, meta.CPUs)
	for _, h := range anoms {
		anomalous[h.CPU]++
	}
	for cpu, evs := range byCPU {
		fmt.Fprintf(stdout, "\n--- cpu %d: %d events; anomalous blocks %d ---\n", cpu, len(evs), anomalous[cpu])
		evs = evs[len(evs)-min(len(evs), *tail):]
		ktrace.BuildTrace(evs, trace.ClockHz, ktrace.DefaultRegistry()).List(stdout, ktrace.ListOptions{})
	}
	return 0
}

// writeDemoDump runs a small traced SDET workload and saves its flight
// recorder as a crash dump at path.
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
	err = ktrace.WriteCrashDump(tr, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
