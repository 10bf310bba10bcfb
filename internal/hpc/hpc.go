// Package hpc builds the paper's other workload class: "large scientific
// applications running one thread per processor" (§3.1) — the case in
// which the lockless logging scheme provably never garbles a buffer,
// because each per-CPU buffer has exactly one writer. The workload is a
// bulk-synchronous iterative computation (a stencil-style kernel): per
// iteration each rank computes, occasionally exchanges boundary data
// through the file/IPC layer, and meets the group at a barrier. Rank
// imbalance makes the barrier waits — and their cost — visible to the
// timeline and overview tools.
package hpc

import (
	"fmt"

	"k42trace/internal/ksim"
)

// Params describes the synthetic application.
type Params struct {
	// Ranks is the number of processes (one per CPU is the standard
	// configuration).
	Ranks int
	// Iterations is the number of compute/barrier rounds.
	Iterations int
	// ComputeNs is the per-iteration computation per rank.
	ComputeNs uint64
	// ImbalancePct skews rank r's compute by +r*ImbalancePct/100 /
	// (Ranks-1) — rank 0 is fastest, the last rank slowest, so the
	// makespan tracks the slowest rank and everyone else waits.
	ImbalancePct int
	// ExchangeBytes, when nonzero, adds a boundary exchange (file
	// write+read) every iteration.
	ExchangeBytes uint64
	// TouchPages faults in each rank's working set on the first iteration.
	TouchPages int
}

// DefaultParams returns a modest 20-iteration run.
func DefaultParams(ranks int) Params {
	return Params{
		Ranks:         ranks,
		Iterations:    20,
		ComputeNs:     50_000,
		ImbalancePct:  10,
		ExchangeBytes: 2048,
		TouchPages:    4,
	}
}

// Build creates the kernel-attached workload: the barrier must belong to
// the kernel, so Build takes the kernel and returns the scripts to pass to
// Run. It wants at least one rank and one iteration; Run refuses fewer.
func Build(k *ksim.Kernel, p Params) []*ksim.Script {
	bar := k.NewBarrier(p.Ranks)
	scripts := make([]*ksim.Script, p.Ranks)
	for r := 0; r < p.Ranks; r++ {
		compute := p.ComputeNs
		if p.Ranks > 1 && p.ImbalancePct > 0 {
			compute += p.ComputeNs * uint64(p.ImbalancePct) * uint64(r) /
				uint64(100*(p.Ranks-1))
		}
		var ops []ksim.Op
		if p.TouchPages > 0 {
			ops = append(ops, ksim.Op{Kind: ksim.OpTouch, Pages: p.TouchPages})
		}
		for it := 0; it < p.Iterations; it++ {
			ops = append(ops, ksim.Op{Kind: ksim.OpCompute, Ns: compute})
			if p.ExchangeBytes > 0 {
				halo := fmt.Sprintf("/scratch/halo.%03d", r)
				ops = append(ops,
					ksim.Op{Kind: ksim.OpWrite, Path: halo, Bytes: p.ExchangeBytes},
					ksim.Op{Kind: ksim.OpRead, Path: fmt.Sprintf("/scratch/halo.%03d", (r+1)%p.Ranks), Bytes: p.ExchangeBytes})
			}
			ops = append(ops, ksim.Op{Kind: ksim.OpBarrier, Barrier: bar})
		}
		scripts[r] = &ksim.Script{Name: fmt.Sprintf("rank%03d", r), Ops: ops}
	}
	return scripts
}

// Result wraps a run with HPC-centric metrics.
type Result struct {
	ksim.RunResult
	// ParallelEfficiency is busy time over (makespan * ranks): barrier
	// waits from imbalance drive it below 1.
	ParallelEfficiency float64
}

// Run builds the workload on k, which may be traced, and runs it. Fewer
// than one rank or one iteration is an error, not a run of one.
func Run(k *ksim.Kernel, p Params) (Result, error) {
	if p.Ranks < 1 || p.Iterations < 1 {
		return Result{}, fmt.Errorf("hpc: %d ranks, %d iterations: want at least 1 of each", p.Ranks, p.Iterations)
	}
	res, err := k.Run(Build(k, p))
	if err != nil {
		return Result{}, err
	}
	var busy uint64
	for _, b := range res.BusyNs {
		busy += b
	}
	eff := 0.0
	if res.MakespanNs > 0 {
		eff = float64(busy) / float64(res.MakespanNs) / float64(len(res.BusyNs))
	}
	return Result{RunResult: res, ParallelEfficiency: eff}, nil
}
