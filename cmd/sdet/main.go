// Command sdet runs the paper's Figure 3 experiment: SPEC SDET-style
// throughput on the simulated multiprocessor OS, swept over processor
// counts, for the tuned (K42-like) and coarse (global-lock) kernels, with
// tracing compiled out, masked (compiled in, disabled — the paper's
// benchmarking configuration), or fully enabled.
//
// Usage:
//
//	sdet -sweep -cpus 1,2,4,8,16,24            # print the Figure 3 table
//	sdet -cpus 8 -config coarse -o trace.ktr   # one traced run -> file
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"k42trace/internal/event"
	"k42trace/internal/flagset"
	"k42trace/internal/sdet"
)

// maskAtFlag collects repeatable -mask-at "ns=maskspec" values.
type maskAtFlag []sdet.MaskChange

func (f *maskAtFlag) String() string { return fmt.Sprintf("%d changes", len(*f)) }

func (f *maskAtFlag) Set(s string) error {
	at, spec, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want ns=maskspec, got %q", s)
	}
	t, err := strconv.ParseUint(strings.TrimSpace(at), 10, 64)
	if err != nil {
		return fmt.Errorf("bad time in %q: %v", s, err)
	}
	mask, err := event.ParseMask(spec)
	if err != nil {
		return err
	}
	*f = append(*f, sdet.MaskChange{AtNs: t, Mask: mask})
	return nil
}

func parseCPUs(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad cpu count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	fs := flag.NewFlagSet("sdet", flag.ExitOnError)
	params := sdet.DefaultParams()
	sweep := fs.Bool("sweep", false, "run the full Figure 3 sweep and print the table")
	cpus := flagset.New(fs, "cpus", "1,2,4,8,16,24", "processor counts (comma-separated; first entry used for single runs)", flagset.Parses("counts >= 1", parseCPUs))
	config := flagset.New(fs, "config", "tuned", "kernel configuration", flagset.OneOf("tuned", "coarse"))
	traceMode := flagset.New(fs, "trace", "masked", "tracing", flagset.OneOf("out", "masked", "on"))
	out := fs.String("o", "", "capture the trace to this file (implies -trace on)")
	flagset.Var(fs, &params.ScriptsPerCPU, "scripts", params.ScriptsPerCPU, "SDET scripts per CPU", flagset.Min(1))
	flagset.Var(fs, &params.CommandsPerScript, "cmds", params.CommandsPerScript, "commands per script", flagset.Min(1))
	flagset.Var(fs, &params.Seed, "seed", params.Seed, "workload seed", flagset.Any[int64]())
	sample := flagset.New(fs, "sample", 0, "PC sampler period in virtual ns (0 = off)", flagset.Any[uint64]())
	hwc := flagset.New(fs, "hwc", 0, "hardware-counter sample period in virtual ns (0 = off)", flagset.Any[uint64]())
	stagger := flagset.New(fs, "stagger", 0, "delay script i by i*stagger virtual ns (startup-idle demo)", flagset.Any[uint64]())
	fs.BoolVar(&params.Forks, "forks", false, "scripts fork a child per command")
	fs.BoolVar(&params.Threads, "threads", false, "scripts spawn a thread per command (multithreaded processes)")
	irq := flagset.New(fs, "irq", 0, "timer IRQ period in virtual ns (0 = off)", flagset.Any[uint64]())
	var maskAt maskAtFlag
	fs.Var(&maskAt, "mask-at", `apply a trace-mask change mid-run: "ns=maskspec" (repeatable; maskspec as in ParseMask: all, none, 0x..., or major names)`)
	flagset.Parse(fs, os.Args[1:])

	list, _ := parseCPUs(*cpus)
	mode := map[string]sdet.TraceMode{
		"out": sdet.TraceCompiledOut, "masked": sdet.TraceMasked, "on": sdet.TraceOn,
	}[*traceMode]
	if *out != "" {
		mode = sdet.TraceOn
	}

	if *sweep {
		pts, err := sdet.Sweep(list, mode, params)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdet:", err)
			os.Exit(1)
		}
		fmt.Println("SDET throughput (scripts/hour) vs processors — Figure 3")
		fmt.Print(sdet.FormatTable(pts))
		return
	}

	cfg := sdet.Config{
		CPUs:        list[0],
		Tuned:       *config == "tuned",
		Trace:       mode,
		Params:      params,
		Sample:      *sample,
		HWCSample:   *hwc,
		IRQPeriod:   *irq,
		Stagger:     *stagger,
		MaskChanges: maskAt,
	}
	var w *os.File
	var err error
	if *out != "" {
		w, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdet:", err)
			os.Exit(1)
		}
		defer w.Close()
	}
	var pt sdet.Point
	if w != nil {
		pt, err = sdet.Run(cfg, w)
	} else {
		pt, err = sdet.Run(cfg, nil)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdet:", err)
		os.Exit(1)
	}
	fmt.Printf("cpus=%d config=%s trace=%v throughput=%.0f scripts/hour makespan=%.3fms events=%d\n",
		pt.CPUs, *config, pt.Trace, pt.Throughput,
		float64(pt.MakespanNs)/1e6, pt.Events)
	if *out != "" {
		fmt.Printf("trace written to %s\n", *out)
	}
}
