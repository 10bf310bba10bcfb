package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what a workload sees of the harness.
type env struct {
	seed  int64
	small bool   // reduced sizes, for the tier-1 smoke test
	dir   string // scratch directory; every input and store of the run lives below it
	out   string // where a traced run leaves <workload>.spans.json
	tr    *tracer
}

// An op is one timed operation of a workload. prep and check run untimed
// around run; an error from any of the three makes the op a failed op.
type op struct {
	prep  func(*env) error
	run   func(*env) error
	check func(*env) error
}

// A workload builds its inputs in setup, runs its two ops every round and
// turns what the traced rounds recorded into per-layer metrics.
type workload interface {
	// setup generates the inputs from e.seed, creates segments and stores
	// and runs the oracle round the checks compare against. It may be
	// called again after teardown.
	setup(e *env) error
	ops() (primary, secondary op)
	// probes makes the extra direct calls of a traced round, where spans
	// around the op cannot isolate a layer.
	probes(e *env) error
	// layers adds this workload's per-layer metrics to m.
	layers(e *env, spans []span, m metrics)
	teardown()
}

// workloadSpec names a workload and fixes how many rounds one second of
// --seconds buys. The rates were sized on the 2-core host so that a run
// of run_seconds takes about that long; the round count is a function of
// --seconds alone, never of how fast the host is, so that counts repeat.
type workloadSpec struct {
	name         string
	roundsPerSec float64
	make         func() workload
}

var workloads = []workloadSpec{
	{"log_hot", 4.2, func() workload { return &logHot{} }},
	{"pipeline_ingest", 3.4, func() workload { return &pipelineIngest{} }},
	{"offline_analysis", 8.5, func() workload { return &offlineAnalysis{} }},
	{"store_query", 5.2, func() workload { return &storeQuery{} }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

const (
	minRounds    = 50
	setupRepeats = 3               // setup_s is the median of this many full set-ups
	setupFloor   = 2 * time.Second // warm-up rounds pad every set-up to this
)

// roundLimit is the watchdog's deadline for one round; a variable so that
// the test of the watchdog need not wait for it.
var roundLimit = 30 * time.Second

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric under the unit its definition in metrics.go gives.
func (m metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " has no definition in metrics.go")
	}
	m[name] = metric{v, unit}
}

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks; vals need not be sorted. An empty
// slice gives 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// crcWriter is the sink every formatted report is written into: it keeps
// a CRC-32 and a byte count, so the checks can compare outputs across
// rounds without holding them.
type crcWriter struct {
	crc uint32
	n   int64
}

func (w *crcWriter) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	w.n += int64(len(p))
	return len(p), nil
}

// countingWriter counts the bytes a drain wrote and discards them.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// sample is what one timed op measured.
type sample struct {
	ms      float64
	allocMB float64
	allocsK float64
}

// timeOp runs one op: prep, a forced collection so that GC cycles land at
// the same points in every round, the memory counters read outside the
// timed span, run, the counters again, check.
func timeOp(e *env, o op, root string) (sample, error) {
	if o.prep != nil {
		if err := o.prep(e); err != nil {
			return sample{}, fmt.Errorf("prep: %w", err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := e.tr.begin(root)
	start := time.Now()
	err := o.run(e)
	elapsed := time.Since(start)
	sp.end()
	runtime.ReadMemStats(&after)
	if err != nil {
		return sample{}, fmt.Errorf("run: %w", err)
	}
	if o.check != nil {
		if err := o.check(e); err != nil {
			return sample{}, fmt.Errorf("check: %w", err)
		}
	}
	return sample{
		ms:      float64(elapsed) / 1e6,
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		allocsK: float64(after.Mallocs-before.Mallocs) / 1e3,
	}, nil
}

// opResult is what one attempted op came to.
type opResult struct {
	sample
	err error
}

// guard runs the steps in order on one goroutine of their own and waits
// for each until roundLimit has passed since the first began. It returns a
// result per step attempted. A step still running at the deadline is
// reported failed and hung, and the steps behind it are never attempted: a
// hang becomes a failed op and a non-zero exit, not a benchmark that never
// ends. The goroutine cannot be stopped and still holds the workload, so
// after a hang the caller must run nothing more.
func guard(steps ...func() (sample, error)) (results []opResult, hung bool) {
	done := make(chan opResult, len(steps)) // the steps may finish after the caller has gone
	go func() {
		for _, step := range steps {
			s, err := step()
			done <- opResult{s, err}
		}
	}()
	timer := time.NewTimer(roundLimit)
	defer timer.Stop()
	for range steps {
		select {
		case r := <-done:
			results = append(results, r)
		case <-timer.C:
			return append(results, opResult{err: fmt.Errorf("still running after %v", roundLimit)}), true
		}
	}
	return results, false
}

var opNames = [2]string{"op", "op2"}

// runRound is one round: the primary op, then the secondary, interleaved
// so that host drift hits both alike. Each is attempted, and fails, on its
// own.
func runRound(e *env, w workload) ([]opResult, bool) {
	p, s := w.ops()
	return guard(
		func() (sample, error) { return timeOp(e, p, "harness.op") },
		func() (sample, error) { return timeOp(e, s, "harness.op2") })
}

// calibrate is a fixed ALU and memory kernel of about 5 ms on the 2-core
// host. It is run before each traced round: when two sets of runs
// disagree, its time says whether the host moved or the code did.
func calibrate(buf []uint64) float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for pass := 0; pass < 4; pass++ {
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] += x
		}
	}
	return float64(time.Since(start)) / 1e6
}

// peakRSSMB is the high-water mark of this process's resident set. It
// reads VmHWM, which belongs to the address space and starts from nothing
// at exec. getrusage's ru_maxrss does not: Linux folds the parent's mark
// into it across fork and exec, so under `go run` it reports the go tool's
// 23-29 MiB for any benchmark that stays below that, a different figure on
// every run. Where /proc is missing, ru_maxrss is all there is.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS restarts VmHWM from the current resident set (Linux 4.0 and
// later) and reports whether it could. Where it cannot, peak_rss_mb is the
// peak of the whole process, set-ups included.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// hostSteal is the time the hypervisor has run something else while a CPU
// of this host wanted to run, summed over the CPUs, in clock ticks (10 ms):
// the eighth number of the first line of /proc/stat, 0 where there is no
// such file. Like calibrate it is a diagnostic: it says whether the host
// moved, and no metric is filtered by it.
func hostSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runResult is everything one run of one workload produced.
type runResult struct {
	rounds, attempted, failed int
	samples, timed            [2]int        // ops behind the allocation medians and behind the timing medians
	measured                  time.Duration // wall time of the rounds, set-up excluded
	firstErr                  error
	endToEnd, timing          metrics
	perLayer                  metrics // traced runs only
}

func (r *runResult) correct() bool { return r.failed == 0 && r.attempted > 0 }

// setUp runs one full set-up: the workload's own, then warm-up rounds
// until setupFloor has passed. Set-ups under 0.6 s spanned 20-50 % from
// run to run on the sizing host; at 2 s and more they agreed within 5 %.
func setUp(e *env, w workload, warmups int) (time.Duration, error) {
	// What the set-up before this one left behind goes first, so that two
	// generations of inputs never share the heap and raise peak_rss_mb by
	// an amount that depends on when the collector happened to run.
	runtime.GC()
	start := time.Now()
	if err := w.setup(e); err != nil {
		return 0, err
	}
	for i := 0; i < warmups || (!e.small && time.Since(start) < setupFloor); i++ {
		results, _ := runRound(e, w)
		for j, o := range results {
			if o.err != nil {
				return 0, fmt.Errorf("warm-up round %s: %w", opNames[j], o.err)
			}
		}
	}
	return time.Since(start), nil
}

// run executes one workload: setupRepeats set-ups, then a fixed number of
// rounds. With tracing on, every second round records spans and runs the
// probes and the rounds between run untraced, so that the overhead of
// tracing is measured inside the one process. Every op started counts as
// attempted, the probes of a traced round as one more; each that fails or
// hangs counts as failed.
func run(spec workloadSpec, e *env, rounds int, traced bool) (*runResult, error) {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	if traced {
		e.tr = newTracer()
	}
	w := spec.make()
	repeats, warmups := setupRepeats, 1
	if e.small {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			w.teardown()
		}
		d, err := setUp(e, w, warmups)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer w.teardown()
	// peak_rss_mb is the median, over the measured rounds, of the round's
	// own resident-set peak. The set-ups generate inputs and run oracles
	// with the collector left free, and their peak read 46 to 62 MiB on one
	// store_query build; it is reported apart, per layer. The highest peak
	// of all rounds is an extreme of fifty and spanned 15 % between runs of
	// pipeline_ingest; the median round is what repeats.
	setupPeak := peakRSSMB()
	runtime.GC()
	debug.FreeOSMemory()
	perRoundPeak := resetPeakRSS()
	var peaks []float64

	res := &runResult{rounds: rounds, endToEnd: metrics{}, timing: metrics{}}
	fail := func(err error) {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	var samples [2][]sample  // every op that passed
	var plainMs [2][]float64 // its time, if its round recorded no spans: what the timing medians rest on
	var tracedMs, calib []float64
	calibBuf := make([]uint64, 1<<19)
	cpu0, steal0, start := cpuMs(), hostSteal(), time.Now()
measure:
	for r := 0; r < rounds; r++ {
		spansOn := traced && r%2 == 0
		if traced {
			calib = append(calib, calibrate(calibBuf))
			e.tr.startRound(r, spansOn)
		}
		if perRoundPeak {
			resetPeakRSS()
		}
		results, hung := runRound(e, w)
		peaks = append(peaks, peakRSSMB())
		for i, o := range results {
			res.attempted++
			if o.err != nil {
				fail(fmt.Errorf("round %d %s: %w", r, opNames[i], o.err))
				continue
			}
			samples[i] = append(samples[i], o.sample)
			switch {
			case !spansOn:
				plainMs[i] = append(plainMs[i], o.ms)
			case i == 0:
				tracedMs = append(tracedMs, o.ms)
			}
		}
		if hung {
			break measure // the round still holds the workload; nothing more can run
		}
		if spansOn {
			e.tr.startRound(r, false)
			res.attempted++
			probe, hung := guard(func() (sample, error) { return sample{}, w.probes(e) })
			if probe[0].err != nil {
				fail(fmt.Errorf("round %d probes: %w", r, probe[0].err))
			}
			if hung {
				break measure
			}
		}
	}
	cpu, steal := cpuMs()-cpu0, hostSteal()-steal0
	res.measured = time.Since(start)

	field := func(ss []sample, f func(sample) float64) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = f(s)
		}
		return out
	}
	// The allocation metrics are medians clamped below at 1: an op that
	// allocates a few dozen objects must not trip a 2 % bound on a
	// one-malloc wobble, while a per-event allocation still cannot hide.
	allocMB := func(ss []sample) float64 {
		return math.Max(1, median(field(ss, func(s sample) float64 { return s.allocMB })))
	}
	allocsK := func(ss []sample) float64 {
		return math.Max(1, median(field(ss, func(s sample) float64 { return s.allocsK })))
	}
	for i := range samples {
		res.samples[i], res.timed[i] = len(samples[i]), len(plainMs[i])
	}
	m := res.endToEnd
	m.set("setup_s", median(setups))
	m.set("op_alloc_mb", allocMB(samples[0]))
	m.set("op2_alloc_mb", allocMB(samples[1]))
	m.set("op_allocs_k", allocsK(samples[0]))
	m.set("op2_allocs_k", allocsK(samples[1]))
	if perRoundPeak {
		m.set("peak_rss_mb", median(peaks))
	} else {
		m.set("peak_rss_mb", peakRSSMB()) // the mark never restarted: all there is
	}
	res.timing.set("op_ms_p50", median(plainMs[0]))
	res.timing.set("op2_ms_p50", median(plainMs[1]))

	if traced {
		pl := metrics{}
		res.perLayer = pl
		for _, d := range perLayerDefs {
			pl.set(d.name, 0)
		}
		for name, v := range res.timing {
			pl[name] = v
		}
		spans := e.tr.spans
		w.layers(e, spans, pl)
		for layer, share := range layerShares(spans) {
			if _, ok := pl[layer+".self_frac"]; ok {
				pl.set(layer+".self_frac", share)
			}
		}
		ms := func(s sample) float64 { return s.ms }
		pl.set("harness.op_ms_p90", percentile(field(samples[0], ms), 90))
		pl.set("harness.op2_ms_p90", percentile(field(samples[1], ms), 90))
		pl.set("harness.cpu_ms_per_round", cpu/float64(max(len(samples[0]), 1)))
		pl.set("harness.calib_ms_p50", median(calib))
		pl.set("harness.steal_ticks", float64(steal))
		pl.set("harness.setup_peak_rss_mb", setupPeak)
		if p := median(plainMs[0]); p > 0 {
			pl.set("harness.trace_overhead_frac", median(tracedMs)/p-1)
		}
		if err := os.MkdirAll(e.out, 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(e.out, spec.name+".spans.json"), spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// roundsFor is the fixed round count --seconds buys for a workload.
func roundsFor(spec workloadSpec, seconds int) int {
	return max(minRounds, int(math.Round(spec.roundsPerSec*float64(seconds))))
}
