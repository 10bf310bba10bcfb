package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// selfCheckRuns is how many runs each of the two sets makes of a workload.
const selfCheckRuns = 5

// selfCheck runs two interleaved sets (A B A B ...) of every workload on
// this one build, each run a process of its own, as the driver's are, and
// prints for every workload and metric both set medians, their gap, the
// bound and a verdict. The gap two sets of the same code show is the
// smallest change the benchmark can resolve; the status is non-zero if any
// gap exceeds its bound.
func selfCheck(seed int64, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defs := append(append([]metricDef(nil), endToEndDefs...), timingDefs...)
	fmt.Printf("selfcheck: 2 sets x %d runs per workload, --seconds %d, seeds from %d\n", selfCheckRuns, seconds, seed)
	fmt.Printf("%-17s %-13s %12s %12s %8s %7s  %s\n", "workload", "metric", "set A", "set B", "gap", "bound", "verdict")
	status := 0
	for _, spec := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*selfCheckRuns; i++ {
			// Run i of set A and run i of set B share a seed, as a parent and
			// a change would.
			m, err := runChild(exe, spec.name, seed+int64(i/2), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.name, err)
				return 1
			}
			for name, v := range m {
				sets[i%2][name] = append(sets[i%2][name], v)
			}
		}
		for _, d := range defs {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			gap := math.Abs(b-a) / a
			verdict := "ok"
			if gap > d.bound {
				verdict, status = "EXCEEDS BOUND", 1
			}
			fmt.Printf("%-17s %-13s %12.4f %12.4f %7.2f%% %6.0f%%  %s\n",
				spec.name, d.name, a, b, 100*gap, 100*d.bound, verdict)
		}
	}
	return status
}

// runChild runs one untraced run of a workload in a child process and
// returns the metrics it printed. A run with a failed op exits non-zero.
func runChild(exe, workload string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(out)), nil
}

// parseMetrics reads back the lines printMetrics wrote: indented, then
// name, value, unit.
func parseMetrics(out string) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 3 && strings.HasPrefix(line, "  ") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				m[f[0]] = v
			}
		}
	}
	return m
}
