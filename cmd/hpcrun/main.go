// Command hpcrun executes the bulk-synchronous scientific workload (one
// rank per processor, compute + halo exchange + barrier per iteration) on
// the simulated machine, reporting parallel efficiency and optionally
// capturing the trace — the "large scientific applications running one
// thread per processor" scenario of §3.1, whose single-writer-per-buffer
// property makes garbled buffers impossible.
//
// Usage:
//
//	hpcrun -ranks 8 -iters 50 -imbalance 20 [-o trace.ktr]
package main

import (
	"flag"
	"fmt"
	"os"

	ktrace "k42trace"
	"k42trace/internal/flagset"
	"k42trace/internal/hpc"
	"k42trace/internal/ksim"
	"k42trace/internal/stream"
)

func main() {
	fs := flag.NewFlagSet("hpcrun", flag.ExitOnError)
	p := hpc.DefaultParams(8)
	flagset.Var(fs, &p.Ranks, "ranks", p.Ranks, "ranks (one per simulated CPU)", flagset.Min(1))
	flagset.Var(fs, &p.Iterations, "iters", p.Iterations, "iterations", flagset.Min(1))
	flagset.Var(fs, &p.ComputeNs, "compute", p.ComputeNs, "per-iteration compute per rank, virtual ns", flagset.Any[uint64]())
	flagset.Var(fs, &p.ImbalancePct, "imbalance", p.ImbalancePct, "compute skew of the slowest rank, percent", flagset.Min(0))
	flagset.Var(fs, &p.ExchangeBytes, "exchange", p.ExchangeBytes, "halo exchange bytes per iteration (0 = none)", flagset.Any[uint64]())
	out := fs.String("o", "", "capture the trace to this file")
	flagset.Parse(fs, os.Args[1:])

	cfg := ksim.Config{CPUs: p.Ranks, Tuned: true}
	var (
		k   *ksim.Kernel
		tr  *ktrace.Tracer
		err error
	)
	if *out == "" {
		k, err = ksim.NewKernel(cfg)
	} else {
		k, tr, err = ksim.NewTracedKernel(cfg, ktrace.Config{BufWords: 8192, NumBufs: 8, Mode: ktrace.Stream})
	}
	if err != nil {
		fail(err)
	}
	var (
		f    *os.File
		wait func() (stream.CaptureStats, error)
	)
	if tr != nil {
		tr.EnableAll()
		if f, err = os.Create(*out); err != nil {
			fail(err)
		}
		wait = stream.CaptureAsync(tr, f)
	}
	res, err := hpc.Run(k, p)
	if err != nil {
		fail(err)
	}
	if tr != nil {
		tr.Stop()
		cst, err := wait()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("trace: %s (%d blocks, %d anomalies — single-writer runs must show 0)\n",
			*out, cst.Blocks, cst.Anomalies)
	}
	fmt.Printf("ranks=%d iterations=%d makespan=%.3fms efficiency=%.1f%% blocked=%d events=%d\n",
		p.Ranks, p.Iterations, float64(res.MakespanNs)/1e6,
		res.ParallelEfficiency*100, res.Blocked, res.TraceEvents)
	for cpu, b := range res.BusyNs {
		fmt.Printf("  rank%-3d busy %8.3fms idle %8.3fms\n",
			cpu, float64(b)/1e6, float64(res.IdleNs[cpu])/1e6)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hpcrun:", err)
	os.Exit(1)
}
