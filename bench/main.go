// Command bench is the repository's benchmark: four closed-loop workloads
// over log → relay → collect → store → query → analyse, six gated
// end-to-end metrics and two op timings per workload, and, in a separate
// traced run, a per-layer budget.
// README.md in this directory has the tables; BENCHMARK.json at the root
// of the repository is the contract the driver holds it to.
//
//	go run ./bench --workload log_hot --seed 1 --seconds 15 --trace 0
//	go run ./bench --workload store_query --seed 1 --seconds 15 --trace 1
//	go run ./bench -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// report is the last line of standard output: exactly these keys.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: log_hot, pipeline_ingest, offline_analysis, store_query")
	seed := flag.Int64("seed", 1, "seed for every generator and pid choice")
	seconds := flag.Int("seconds", 15, "length of the measured phase; fixes the round count")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead")
	selfcheck := flag.Bool("selfcheck", false, "run two interleaved sets of every workload and compare their medians")
	flag.Parse()

	if *selfcheck {
		os.Exit(selfCheck(*seed, *seconds))
	}
	spec, ok := findWorkload(*name)
	if !ok || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown or missing --workload %q\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	// Everything a run writes goes under bench/out, inside the checkout the
	// command is run from.
	out := filepath.Join("bench", "out")
	e := &env{seed: *seed, out: out, dir: filepath.Join(out, fmt.Sprintf("%s-%d", spec.name, os.Getpid()))}
	traced := *trace != 0
	rounds := roundsFor(spec, *seconds)
	res, err := run(spec, e, rounds, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(printResult(spec.name, *seed, res, traced))
}

// printResult prints every metric by name with its unit, the op counts and
// the sample counts behind the medians, then the report line: the gated
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one. It returns the exit status.
func printResult(workload string, seed int64, res *runResult, traced bool) int {
	fmt.Printf("workload %s  seed %d  rounds %d  gomaxprocs %d  traced %v\n",
		workload, seed, res.rounds, runtime.GOMAXPROCS(0), traced)
	fmt.Printf("attempted %d ops  failed %d ops  measured for %.1f s\n", res.attempted, res.failed, res.measured.Seconds())
	fmt.Printf("samples per median: op %d, op2 %d; of them behind op_ms_p50 %d, op2_ms_p50 %d (rounds without spans)\n",
		res.samples[0], res.samples[1], res.timed[0], res.timed[1])
	printMetrics(os.Stdout, endToEndDefs, res.endToEnd)
	m := res.endToEnd
	if traced {
		m = res.perLayer
		printMetrics(os.Stdout, perLayerDefs, m)
	} else {
		printMetrics(os.Stdout, timingDefs, res.timing)
	}
	if res.firstErr != nil {
		fmt.Fprintln(os.Stderr, "bench: first failure:", res.firstErr)
	}
	line, err := json.Marshal(report{res.correct(), res.attempted, res.failed, m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

// printMetrics prints one line per metric: name, value, unit. -selfcheck
// reads these lines back.
func printMetrics(w io.Writer, defs []metricDef, m metrics) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-43s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
	}
}
