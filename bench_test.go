// Benchmarks regenerating the paper's evaluation, one per figure/claim.
// The experiment index lives in DESIGN.md §3; measured-vs-paper numbers
// are recorded in EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
package ktrace_test

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	ktrace "k42trace"
	"k42trace/internal/baseline"
	"k42trace/internal/clock"
	"k42trace/internal/diff"
	"k42trace/internal/event"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// --- C1: disabled trace point ---------------------------------------------
//
// §3.2: "The cost of checking the trace mask is 4 machine instructions";
// disabled trace points must be nearly free so the infrastructure can stay
// compiled in always.

func BenchmarkC1MaskCheckDisabled(b *testing.B) {
	tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 4096, NumBufs: 4})
	tr.DisableAll()
	c := tr.CPU(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Log1(ktrace.MajorTest, 1, uint64(i))
	}
	if tr.Stats().Events != 0 {
		b.Fatal("disabled path logged events")
	}
}

// --- C2: enabled event cost vs payload size ---------------------------------
//
// §3.2: "A 1-word 64-bit event requires 91 cycles (100 ns on a 1GHz
// processor) with 11 cycles for each additional 64-bit word logged." The
// shape to reproduce is a small constant base plus a small linear per-word
// slope.

func BenchmarkC2EventCostPerWord(b *testing.B) {
	payload := make([]uint64, 256)
	for _, n := range []int{0, 1, 2, 4, 8, 16, 64, 256} {
		b.Run(fmt.Sprintf("words=%d", n), func(b *testing.B) {
			tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 16384, NumBufs: 4})
			tr.EnableAll()
			c := tr.CPU(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.LogWords(ktrace.MajorTest, 1, payload[:n])
			}
		})
	}
	// The fixed-arity fast paths (per-major-ID macros in K42).
	b.Run("Log1-fixed-arity", func(b *testing.B) {
		tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 16384, NumBufs: 4})
		tr.EnableAll()
		c := tr.CPU(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Log1(ktrace.MajorTest, 1, uint64(i))
		}
	})
	// The per-P batched fast path: one reservation CAS amortized over
	// batch events (2 words each) instead of one per event. batch=1 is
	// the degenerate case measuring pure fast-path dispatch overhead.
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("Log1-perP-batch=%d", batch), func(b *testing.B) {
			tr := ktrace.MustNew(ktrace.Config{
				CPUs: 1, BufWords: 16384, NumBufs: 4, BatchWords: 2 * batch})
			tr.EnableAll()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.PLog1(ktrace.MajorTest, 1, uint64(i))
			}
			b.StopTimer()
			tr.Quiesce() // close parked batches so the counters are exact
			st := tr.Stats()
			if st.Events > 0 {
				b.ReportMetric(100*float64(st.FastHits)/float64(st.Events), "fast-hit-%")
			}
			if st.BatchOpens > 0 {
				b.ReportMetric(float64(st.FastHits)/float64(st.BatchOpens), "events/cas")
			}
		})
	}
}

// --- Dynamic control: ApplyMask propagation ---------------------------------
//
// §3.2: the trace mask exists so one can "dynamically alter the types of
// events logged". ApplyMask is the control-plane flavor of that knob: it
// swaps the mask, waits out each CPU's in-flight loggers, and stamps a
// CtrlMaskChange marker into every CPU's stream. This measures the cost of
// one full flip (swap + per-CPU drain + per-CPU marker), the latency an
// operator pays between POSTing /live/mask and the new visibility epoch
// starting. Pair with C1 for what the disabled majors cost afterwards.

func BenchmarkApplyMask(b *testing.B) {
	for _, cpus := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("cpus=%d", cpus), func(b *testing.B) {
			tr := ktrace.MustNew(ktrace.Config{
				CPUs: cpus, BufWords: 4096, NumBufs: 8, Mode: ktrace.Stream})
			go func() {
				for s := range tr.Sealed() {
					tr.Release(s)
				}
			}()
			tr.EnableAll()
			narrow := ktrace.MajorControl.Bit() | ktrace.MajorTest.Bit()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					tr.ApplyMask(narrow)
				} else {
					tr.ApplyMask(^uint64(0))
				}
			}
			b.StopTimer()
			tr.Stop()
		})
	}
}

// --- C3 / Figure 3: SDET tracing overhead -----------------------------------
//
// §4: the Figure 3 data was taken with the trace infrastructure compiled
// in (mask disabled) at under 1% cost. The reported metric is the virtual
// makespan of the simulated SDET run in each tracing configuration.

func BenchmarkC3TracingOverheadSDET(b *testing.B) {
	p := sdet.Params{ScriptsPerCPU: 3, CommandsPerScript: 5, Seed: 11}
	for _, mode := range []sdet.TraceMode{sdet.TraceCompiledOut, sdet.TraceMasked, sdet.TraceOn} {
		b.Run(mode.String(), func(b *testing.B) {
			var last sdet.Point
			for i := 0; i < b.N; i++ {
				pt, err := sdet.Run(sdet.Config{CPUs: 4, Tuned: true, Trace: mode, Params: p}, nil)
				if err != nil {
					b.Fatal(err)
				}
				last = pt
			}
			b.ReportMetric(float64(last.MakespanNs), "virtual-ns")
			b.ReportMetric(float64(last.Events), "events")
		})
	}
}

// --- Figure 3: SDET throughput vs processors ---------------------------------
//
// The headline graph: scripts/hour against processor count for the tuned
// (K42-like) and coarse (global-lock) kernels, tracing compiled in but
// masked, exactly the paper's benchmarking configuration.

func BenchmarkFigure3SDET(b *testing.B) {
	p := sdet.Params{ScriptsPerCPU: 4, CommandsPerScript: 6, Seed: 42}
	for _, cpus := range []int{1, 2, 4, 8, 16, 24} {
		for _, tuned := range []bool{true, false} {
			name := fmt.Sprintf("cpus=%d/%s", cpus, map[bool]string{true: "tuned", false: "coarse"}[tuned])
			b.Run(name, func(b *testing.B) {
				var last sdet.Point
				for i := 0; i < b.N; i++ {
					pt, err := sdet.Run(sdet.Config{
						CPUs: cpus, Tuned: tuned, Trace: sdet.TraceMasked, Params: p}, nil)
					if err != nil {
						b.Fatal(err)
					}
					last = pt
				}
				b.ReportMetric(last.Throughput, "scripts/hour")
			})
		}
	}
}

// --- C4/C5: lockless vs the baselines, and scalability in writers -----------
//
// §4.1: applying the lockless logging, per-CPU buffers, and cheap
// timestamps to Linux gave "an order of magnitude performance
// improvement". Writers share CPU slots round-robin; per-CPU designs give
// each writer its own slot.

func BenchmarkC4LoggingThroughput(b *testing.B) {
	clk := clock.NewSync()
	factories := []struct {
		name string
		mk   func(cpus int) baseline.Logger
	}{
		{"lockless-percpu", func(c int) baseline.Logger { return baseline.NewLockless(c, 16384, 4, clk) }},
		{"lock-percpu", func(c int) baseline.Logger { return baseline.NewPerCPULockLogger(c, 16384, clk) }},
		{"lock-shared", func(c int) baseline.Logger { return baseline.NewLockLogger(16384, clk) }},
		{"fixed-slots", func(c int) baseline.Logger { return baseline.NewFixedLogger(c, 4096, clk) }},
		{"syscall", func(c int) baseline.Logger { return baseline.NewSyscallLogger(16384, clk) }},
	}
	for _, f := range factories {
		for _, writers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/writers=%d", f.name, writers), func(b *testing.B) {
				l := f.mk(writers)
				defer l.Close()
				per := b.N / writers
				if per == 0 {
					per = 1
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < per; i++ {
							l.Log1(w, event.MajorTest, 1, uint64(i))
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// --- C4 across address spaces: the shared-memory producer ----------------
//
// §2: applications log "directly into the buffers via memory mapped
// access" — mapping is what makes user-level tracing cost what kernel
// tracing costs, instead of a system call per event. Rows: a client
// attached to a daemon-owned segment (the CAS protocol running on the
// mmap'd words, agent draining concurrently), the in-process streaming
// tracer on identical geometry, and the syscall-per-event baseline that
// user-mapped buffers exist to avoid.

func BenchmarkShmLog(b *testing.B) {
	const bufWords, numBufs = 16384, 4

	b.Run("shm-client", func(b *testing.B) {
		ag, err := ktrace.CreateShmSegment(filepath.Join(b.TempDir(), "bench.seg"),
			ktrace.ShmGeometry{CPUs: 1, BufWords: bufWords, NumBufs: numBufs, MaxClients: 4})
		if err != nil {
			b.Fatal(err)
		}
		wait := ktrace.CaptureAsync(ag, io.Discard)
		cl, err := ktrace.Attach(ag.Path())
		if err != nil {
			b.Fatal(err)
		}
		c := cl.CPU(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Log1(ktrace.MajorTest, 1, uint64(i))
		}
		b.StopTimer()
		if err := cl.Detach(); err != nil {
			b.Fatal(err)
		}
		ag.Stop()
		if _, err := wait(); err != nil {
			b.Fatal(err)
		}
		ag.Close()
	})

	// Batched client: one reservation CAS on the shared words per batch
	// events instead of per event — the same amortization the in-process
	// per-P path gets, available across address spaces.
	for _, batch := range []int{4, 16} {
		b.Run(fmt.Sprintf("shm-client-batch=%d", batch), func(b *testing.B) {
			ag, err := ktrace.CreateShmSegment(filepath.Join(b.TempDir(), "bench.seg"),
				ktrace.ShmGeometry{CPUs: 1, BufWords: bufWords, NumBufs: numBufs, MaxClients: 4})
			if err != nil {
				b.Fatal(err)
			}
			wait := ktrace.CaptureAsync(ag, io.Discard)
			cl, err := ktrace.Attach(ag.Path())
			if err != nil {
				b.Fatal(err)
			}
			c := cl.CPU(0)
			var bt ktrace.Batch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%batch == 0 && !c.OpenBatch(&bt, ktrace.MajorTest, 2*batch) {
					b.Fatal("OpenBatch failed")
				}
				bt.Log1(ktrace.MajorTest, 1, uint64(i))
			}
			bt.Close()
			b.StopTimer()
			if err := cl.Detach(); err != nil {
				b.Fatal(err)
			}
			ag.Stop()
			if _, err := wait(); err != nil {
				b.Fatal(err)
			}
			ag.Close()
		})
	}

	b.Run("in-process", func(b *testing.B) {
		tr := ktrace.MustNew(ktrace.Config{
			CPUs: 1, BufWords: bufWords, NumBufs: numBufs, Mode: ktrace.Stream})
		tr.EnableAll()
		wait := ktrace.CaptureAsync(tr, io.Discard)
		c := tr.CPU(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Log1(ktrace.MajorTest, 1, uint64(i))
		}
		b.StopTimer()
		tr.Stop()
		if _, err := wait(); err != nil {
			b.Fatal(err)
		}
	})

	b.Run("syscall-baseline", func(b *testing.B) {
		l := baseline.NewSyscallLogger(bufWords, clock.NewSync())
		defer l.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Log1(0, ktrace.MajorTest, 1, uint64(i))
		}
	})
}

// --- C4 in virtual time: locked vs lockless tracing at scale ----------------
//
// The wall-clock comparison above runs on however many host cores exist;
// this one reproduces the multiprocessor effect deterministically in the
// simulator: 16 virtual CPUs logging full event streams through per-CPU
// lockless buffers versus one lock-serialized global buffer (the design
// LTT replaced for its "order of magnitude" improvement).

func BenchmarkC4VirtualLockedVsLockless(b *testing.B) {
	p := sdet.Params{ScriptsPerCPU: 3, CommandsPerScript: 5, Seed: 11}
	for _, locked := range []bool{false, true} {
		name := "lockless-percpu"
		if locked {
			name = "locked-global"
		}
		b.Run(name, func(b *testing.B) {
			var last sdet.Point
			for i := 0; i < b.N; i++ {
				pt, err := sdet.Run(sdet.Config{
					CPUs: 16, Tuned: true, Trace: sdet.TraceOn,
					Params: p, LockedTrace: locked}, nil)
				if err != nil {
					b.Fatal(err)
				}
				last = pt
			}
			b.ReportMetric(float64(last.MakespanNs), "virtual-ns")
			b.ReportMetric(last.Throughput, "scripts/hour")
		})
	}
}

// --- C6: filler waste and boundary fits --------------------------------------
//
// §3.2: "30 to 40 percent of events end exactly on a buffer boundary and
// because there are very few events larger than 4 64-bit words, this
// alignment in practice wastes very little space." Metrics: filler words
// as a percent of logged words, and exact-boundary fits as a percent of
// buffer transitions.

// c6Mix logs n events of the paper's event mix into tr's CPU 0: mostly
// small events, none above 4 payload words, pseudo-randomly sized from a
// fixed seed (a deterministic cyclic mix would either always or never land
// on boundaries).
func c6Mix(tr *ktrace.Tracer, n int) {
	c := tr.CPU(0)
	payload := make([]uint64, 4)
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		c.LogWords(ktrace.MajorTest, 1, payload[:(rng>>33)%5])
	}
}

// c6Tracer is the one-CPU tracer of the C6 measurements, enabled.
func c6Tracer() *ktrace.Tracer {
	tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 16384, NumBufs: 4})
	tr.EnableAll()
	return tr
}

// c6Percents are filler words as a percent of logged words and exact
// boundary fits as a percent of buffer transitions.
func c6Percents(st ktrace.Stats) (filler, exactFit float64) {
	if st.Words+st.FillerWords > 0 {
		filler = 100 * float64(st.FillerWords) / float64(st.Words+st.FillerWords)
	}
	if st.Anchors > 0 {
		exactFit = 100 * float64(st.ExactFit) / float64(st.Anchors)
	}
	return filler, exactFit
}

func BenchmarkC6FillerWaste(b *testing.B) {
	tr := c6Tracer()
	b.ResetTimer()
	c6Mix(tr, b.N)
	b.StopTimer()
	filler, exact := c6Percents(tr.Stats())
	b.ReportMetric(filler, "filler-%")
	b.ReportMetric(exact, "exact-fit-%")
}

// TestC6FillerWaste holds the mix to the paper's band: 30-40 % of buffer
// transitions are exact fits (25-45 % allowed), and filler is under 0.1 %
// of logged words.
func TestC6FillerWaste(t *testing.T) {
	tr := c6Tracer()
	c6Mix(tr, 2_000_000)
	filler, exact := c6Percents(tr.Stats())
	t.Logf("exact boundary fits %.1f%%, filler %.4f%% of logged words", exact, filler)
	if exact < 25 || exact > 45 {
		t.Errorf("exact fits %.1f%% of buffer transitions, outside the paper's 30-40%% band", exact)
	}
	if filler >= 0.1 {
		t.Errorf("filler %.4f%% of logged words, want under 0.1%%", filler)
	}
}

// --- C7: random access into a large trace ------------------------------------
//
// §3.2: tools must reach the middle of a multi-buffer trace without
// scanning it. Seek decodes one block via the fixed-stride index; scan
// decodes every block up to the same point.

var c7Trace struct {
	once sync.Once
	data []byte
}

func c7File(b *testing.B) []byte {
	c7Trace.once.Do(func() {
		tr := ktrace.MustNew(ktrace.Config{
			CPUs: 1, BufWords: 1024, NumBufs: 4,
			Mode: ktrace.Stream, Clock: clock.NewManual(1),
		})
		tr.EnableAll()
		var buf bytes.Buffer
		wait := stream.CaptureAsync(tr, &buf)
		c := tr.CPU(0)
		for i := 0; i < 400_000; i++ {
			c.Log2(ktrace.MajorTest, 1, uint64(i), uint64(i))
		}
		tr.Stop()
		if _, err := wait(); err != nil {
			panic(err)
		}
		c7Trace.data = buf.Bytes()
	})
	return c7Trace.data
}

func BenchmarkC7RandomAccess(b *testing.B) {
	data := c7File(b)
	rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	mid := rd.NumBlocks() / 2
	b.Run("seek-to-middle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := rd.Events(mid); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan-to-middle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k <= mid; k++ {
				if _, _, err := rd.Events(k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	// The one time index is the full index: built by decoding every block,
	// on one worker and on all of them, or read back from its sidecar.
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("build-full-index/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rd.BuildFullIndex(w, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	fi, err := rd.BuildFullIndex(0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("load-sidecar", func(b *testing.B) {
		side := filepath.Join(b.TempDir(), "c7.ktr.kix")
		if err := stream.SaveIndex(side, fi); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := stream.LoadIndex(side, rd.Meta(), rd.NumBlocks()); err != nil {
				b.Fatal(err)
			}
		}
	})
	// "Jump to the middle of the trace": every CPU's events inside the time
	// span of the middle block, the blocks found by their exact bounds.
	b.Run("window-via-index", func(b *testing.B) {
		from, to := fi.Blocks[mid].MinTime, fi.Blocks[mid+1].MinTime
		for i := 0; i < b.N; i++ {
			if evs, err := rd.EventsBetween(fi, from, to); err != nil || len(evs) == 0 {
				b.Fatalf("window read: %d events, %v", len(evs), err)
			}
		}
	})
}

// --- Figures 4-8: the analysis tools -----------------------------------------
//
// These regenerate the paper's figures from a canned traced SDET run and
// measure the tools themselves.

var figTrace struct {
	once sync.Once
	tr   *ktrace.Trace
}

func figureTrace(b *testing.B) *ktrace.Trace {
	figTrace.once.Do(func() {
		var buf bytes.Buffer
		p := sdet.Params{ScriptsPerCPU: 4, CommandsPerScript: 5, Seed: 9}
		if _, err := sdet.Run(sdet.Config{
			CPUs: 8, Tuned: false, Trace: sdet.TraceOn, Params: p, Sample: 50_000,
		}, &buf); err != nil {
			panic(err)
		}
		rd, err := stream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			panic(err)
		}
		evs, _, err := rd.ReadAll()
		if err != nil {
			panic(err)
		}
		figTrace.tr = ktrace.BuildTrace(evs, rd.Meta().ClockHz, ktrace.DefaultRegistry())
	})
	return figTrace.tr
}

func BenchmarkFigure4Timeline(b *testing.B) {
	tr := figureTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl := tr.Timeline(100, "TRC_USER_RUN_UL_LOADER")
		if len(tl.Cells) == 0 {
			b.Fatal("empty timeline")
		}
	}
}

func BenchmarkFigure5Listing(b *testing.B) {
	tr := figureTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		if _, err := tr.List(&out, ktrace.ListOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkList is the lister's cost per listed line: one op is one event, so
// ns/op, B/op and allocs/op read per event (Figure5Listing above is a whole
// listing into a fresh buffer).
func BenchmarkList(b *testing.B) {
	tr := figureTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; {
		n, err := tr.List(io.Discard, ktrace.ListOptions{ShowControl: true, Limit: left})
		if err != nil || n == 0 {
			b.Fatalf("listed %d lines: %v", n, err)
		}
		left -= n
	}
}

func BenchmarkFigure6Profile(b *testing.B) {
	tr := figureTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := tr.Profile(^uint64(0))
		if p.Total == 0 {
			b.Fatal("no samples")
		}
	}
}

func BenchmarkFigure7LockStat(b *testing.B) {
	tr := figureTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := tr.LockStat()
		if len(rep.Rows) == 0 {
			b.Fatal("no contention")
		}
	}
}

func BenchmarkFigure8TimeBreak(b *testing.B) {
	tr := figureTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := tr.TimeBreak(2)
		if tb.TotalNs() == 0 {
			b.Fatal("no attribution")
		}
	}
}

// --- Ablations: mitigation and readout features -------------------------------

// BenchmarkAblationZeroFill measures §3.1's zero-fill mitigation: the cost
// lands on the consumer's Release, not the logging path.
func BenchmarkAblationZeroFill(b *testing.B) {
	for _, zero := range []bool{false, true} {
		name := "plain-release"
		if zero {
			name = "zero-fill-release"
		}
		b.Run(name, func(b *testing.B) {
			tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 16384, NumBufs: 4,
				Mode: ktrace.Stream, ZeroFill: zero})
			tr.EnableAll()
			go func() {
				for s := range tr.Sealed() {
					tr.Release(s)
				}
			}()
			c := tr.CPU(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Log1(ktrace.MajorTest, 1, uint64(i))
			}
			b.StopTimer()
			tr.Stop()
		})
	}
}

// BenchmarkRedactBuffer measures the per-user readout filter (§5 future
// work) over one full buffer.
func BenchmarkRedactBuffer(b *testing.B) {
	tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 16384, NumBufs: 4})
	tr.EnableAll()
	c := tr.CPU(0)
	for i := 0; i < 8000; i++ {
		c.Log2(ktrace.Major(uint8(i%8)+1), 1, uint64(i), uint64(i))
	}
	words := make([]uint64, 16384)
	evs, _ := ktrace.DecodeBuffer(0, words)
	_ = evs
	visible := ktrace.VisibleMask(ktrace.MajorMem, ktrace.MajorIO)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ktrace.Redact(words, visible)
	}
}

// BenchmarkCrashDump measures writing a full flight recorder as a trace
// file and reading it back (2 CPUs x 4 x 16384-word buffers = 1 MiB of
// trace memory).
func BenchmarkCrashDump(b *testing.B) {
	tr := ktrace.MustNew(ktrace.Config{CPUs: 2, BufWords: 16384, NumBufs: 4})
	tr.EnableAll()
	for i := 0; i < 50000; i++ {
		tr.CPU(i%2).Log1(ktrace.MajorTest, 1, uint64(i))
	}
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := ktrace.WriteCrashDump(tr, &buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	var img bytes.Buffer
	if err := ktrace.WriteCrashDump(tr, &img); err != nil {
		b.Fatal(err)
	}
	b.Run("read-and-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rd, err := ktrace.NewReader(bytes.NewReader(img.Bytes()), int64(img.Len()))
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := rd.ReadAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: stale timestamps ----------------------------------------------
//
// Measures the cost of the correct in-loop timestamp re-read against the
// unsafe pre-loop read, showing the monotonicity guarantee is nearly free.

func BenchmarkAblationTimestampReread(b *testing.B) {
	for _, stale := range []bool{false, true} {
		name := "in-loop-reread"
		if stale {
			name = "stale-preloop"
		}
		b.Run(name, func(b *testing.B) {
			tr := ktrace.MustNew(ktrace.Config{
				CPUs: 1, BufWords: 16384, NumBufs: 4, UnsafeStaleTimestamp: stale})
			tr.EnableAll()
			c := tr.CPU(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Log1(ktrace.MajorTest, 1, uint64(i))
			}
		})
	}
}

// --- Parallel analysis pipeline ----------------------------------------------
//
// The read-side scalability story: block-level fan-out over the Reader's
// random-access points, per-CPU mergeable accumulators, and a k-way heap
// merge replacing the global sort. Output is bit-identical to sequential
// at every worker count (see the determinism tests); these benchmarks
// capture the throughput-vs-workers curve and the merge-vs-sort gap.

var pbench struct {
	once sync.Once
	data []byte
}

// pbenchFile builds a multi-MB, multi-hundred-block trace over 4 CPU
// streams — large enough that block decode dominates and fan-out matters.
func pbenchFile(b *testing.B) []byte {
	pbench.once.Do(func() {
		tr := ktrace.MustNew(ktrace.Config{
			CPUs: 4, BufWords: 1024, NumBufs: 8,
			Mode: ktrace.Stream, Clock: clock.NewManual(1),
		})
		tr.EnableAll()
		var buf bytes.Buffer
		wait := stream.CaptureAsync(tr, &buf)
		for i := 0; i < 600_000; i++ {
			c := tr.CPU(i % 4)
			if i%5 == 0 {
				c.Log4(ktrace.MajorTest, 2, uint64(i), 1, 2, 3)
			} else {
				c.Log2(ktrace.MajorTest, 1, uint64(i), uint64(i))
			}
		}
		tr.Stop()
		if _, err := wait(); err != nil {
			panic(err)
		}
		pbench.data = buf.Bytes()
	})
	return pbench.data
}

func BenchmarkParallelAnalysis(b *testing.B) {
	data := pbenchFile(b)
	rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	if rd.NumBlocks() < 64 {
		b.Fatalf("bench trace has %d blocks, want >= 64", rd.NumBlocks())
	}
	workers := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				evs, _, err := rd.ReadAllParallel(w)
				if err != nil {
					b.Fatal(err)
				}
				tr := ktrace.BuildTrace(evs, 1, ktrace.DefaultRegistry())
				if rows := tr.OverviewParallel(w); len(rows) == 0 {
					b.Fatal("no overview rows")
				}
			}
		})
	}
}

// BenchmarkReadAll is the whole-file read alone, strict and tolerant: B/op
// is the answer — 48 bytes an event and the reader's copy of the payload
// words — and whatever the read allocates besides it.
func BenchmarkReadAll(b *testing.B) {
	data := pbenchFile(b)
	rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	reads := []struct {
		name string
		read func(workers int) (int, error)
	}{
		{"strict", func(workers int) (int, error) {
			evs, _, err := rd.ReadAllParallel(workers)
			return len(evs), err
		}},
		{"salvage", func(workers int) (int, error) {
			evs, _, err := stream.Salvage(bytes.NewReader(data), int64(len(data)), workers)
			return len(evs), err
		}},
	}
	for _, r := range reads {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", r.name, w), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if n, err := r.read(w); err != nil || n < 600_000 {
						b.Fatalf("%d events: %v", n, err)
					}
				}
			})
		}
	}
}

func BenchmarkKWayMerge(b *testing.B) {
	data := pbenchFile(b)
	rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	// The runs the readers merge: each block's own events, in file order.
	streams := make([][]event.Event, rd.NumBlocks())
	n := 0
	for k := range streams {
		if streams[k], _, err = rd.Events(k); err != nil {
			b.Fatal(err)
		}
		n += len(streams[k])
	}
	b.Run("kway-heap-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := stream.MergeByTime(streams...); len(got) != n {
				b.Fatal("merge lost events")
			}
		}
	})
	// The pre-parallel approach: concatenate in block order, then one
	// global stable sort by (Time, CPU).
	b.Run("global-stable-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			all := make([]event.Event, 0, n)
			for _, s := range streams {
				all = append(all, s...)
			}
			sort.SliceStable(all, func(i, j int) bool {
				if all[i].Time != all[j].Time {
					return all[i].Time < all[j].Time
				}
				return all[i].CPU < all[j].CPU
			})
		}
	})
}

// --- Differential analysis ----------------------------------------------------
//
// tracediff over the canonical coarse/tuned fixture pair: alignment,
// windowed occupancy on both runs, lock/profile/process deltas, and the
// divergence score, at several fan-out widths. The report is byte-identical
// at every width (TestTraceDiffToolParity); this captures the cost curve.

func BenchmarkTraceDiff(b *testing.B) {
	open := func(name string) *ktrace.Trace {
		tr, _, _, err := ktrace.OpenTraceFileParallel(filepath.Join("testdata", "corpus", name), 0)
		if err != nil {
			b.Skipf("corpus fixture missing (run go test . -update): %v", err)
		}
		return tr
	}
	coarse, tuned := open("coarse.ktr"), open("tuned.ktr")
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := diff.Diff(coarse, tuned, diff.Options{Workers: w})
				if rep.Divergence == 0 {
					b.Fatal("fixture pair diffed to zero")
				}
			}
		})
	}
}

// BenchmarkBlockDecode guards the zero-allocation decode path: allocs/op
// for a warm ReadBlockInto must stay at 0 (the events-per-block sub-bench
// shows the owning form for contrast: a fresh BlockBuf and DecodeBuffer's
// event slice and payload slab, four allocations per block).
func BenchmarkBlockDecode(b *testing.B) {
	data := pbenchFile(b)
	rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("read-block-into", func(b *testing.B) {
		var bb stream.BlockBuf
		if _, _, err := rd.ReadBlockInto(0, &bb); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := rd.ReadBlockInto(i%rd.NumBlocks(), &bb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("events-per-block", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := rd.Events(i % rd.NumBlocks()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
