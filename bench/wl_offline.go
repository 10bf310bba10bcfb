package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"k42trace/internal/analysis"
	"k42trace/internal/core"
	"k42trace/internal/diff"
	"k42trace/internal/event"
	"k42trace/internal/faultinject"
	"k42trace/internal/ksim"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// sdetTrace runs the SDET workload (4 CPUs, 64 scripts each, both samplers
// on) on the simulated kernel and returns the trace file bytes: what
// sdet.Run does, with the buffer size left to the caller, because the store
// prunes by block and needs more than sixteen of them. Time is virtual, so
// the bytes are a function of the arguments alone.
//
// The command shuffle is fixed, not drawn from the run's seed: another
// shuffle moves the event count, and every allocation metric with it, by
// up to 1 % either way (84 974 to 86 663 events over ten seeds), which is
// the whole of the 2 % those metrics are allowed. The seed moves what is
// asked of the trace instead: which process, which windows, which blocks
// are damaged.
func sdetTrace(e *env, tuned bool, bufWords int) ([]byte, error) {
	const cpus, shuffle = 4, 42
	params := sdet.Params{ScriptsPerCPU: 64, CommandsPerScript: 6, Seed: shuffle}
	if e.small {
		// Keep the block count: the damage and the store's pruning work on
		// whole blocks.
		params.ScriptsPerCPU, bufWords = 8, bufWords/8
	}
	k, tr, err := ksim.NewTracedKernel(
		ksim.Config{CPUs: cpus, Tuned: tuned, SamplePeriod: 100_000, HWCSamplePeriod: 200_000, Seed: shuffle},
		core.Config{BufWords: bufWords, NumBufs: 8, Mode: core.Stream})
	if err != nil {
		return nil, err
	}
	tr.EnableAll()
	var buf bytes.Buffer
	wait := stream.CaptureAsync(tr, &buf)
	_, err = k.Run(sdet.Workload(cpus, params))
	tr.Stop()
	if _, werr := wait(); err == nil {
		err = werr
	}
	return buf.Bytes(), err
}

// busiestPid picks the process the per-pid reports are about: one of the
// three with the most scheduled time, chosen by the seed.
func busiestPid(tr *analysis.Trace, seed int64) (uint64, error) {
	var top []uint64
	for _, row := range tr.Overview() {
		if row.Pid != 0 && len(top) < 3 {
			top = append(top, row.Pid)
		}
	}
	if len(top) == 0 {
		return 0, fmt.Errorf("trace has no scheduled process")
	}
	return top[int(uint64(seed)%uint64(len(top)))], nil
}

// offlineAnalysis is the time from a trace file to a complete result for
// the offline tools. The primary op reads trace A strictly and renders the
// five reports; the secondary salvages the damaged trace B′ and diffs it
// against A. The strict and the tolerant reader, and the analyses behind
// them, run side by side: neither may pay for the other.
type offlineAnalysis struct {
	pathA, pathB string
	sizeA        int64
	pid          uint64
	traceA       *analysis.Trace // what the diff compares B′ against
	flipped      int             // the block whose magic was broken
	tail         int64           // bytes cut from the end of B′

	oracle, got   [5]uint32 // report CRCs: lockstat, overview, profile, timebreak, memprofile
	oracle2, got2 uint32
	rep           *stream.SalvageReport
	have          bool

	quarantined []float64
}

func (w *offlineAnalysis) setup(e *env) error {
	a, err := sdetTrace(e, false, core.DefaultBufWords)
	if err != nil {
		return err
	}
	b, err := sdetTrace(e, true, core.DefaultBufWords)
	if err != nil {
		return err
	}
	// B′: block 1 torn half way, block 2 with a broken magic word and half a
	// block cut from the tail. The seed picks the bit that breaks the magic
	// word and nothing else: letting it pick the blocks moved the secondary
	// op's allocation by 3.8 % (55.96 to 58.13 MiB over six seeds), more
	// than the metric is allowed in all.
	im, err := faultinject.OpenImage(b, e.seed)
	if err != nil {
		return err
	}
	if im.NumBlocks() < 4 {
		return fmt.Errorf("trace B has only %d blocks", im.NumBlocks())
	}
	w.flipped = 2
	im.TearBlock(1, im.Meta().BufWords/2)
	im.CorruptBlockMagic(w.flipped)
	w.tail = int64(im.Meta().Geometry().BlockBytes / 2)
	im.TruncateTail(int(w.tail))

	w.pathA, w.pathB = filepath.Join(e.dir, "a.ktr"), filepath.Join(e.dir, "b-damaged.ktr")
	w.sizeA = int64(len(a))
	if err := os.WriteFile(w.pathA, a, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(w.pathB, im.Bytes(), 0o644); err != nil {
		return err
	}
	rd, err := stream.NewReader(bytes.NewReader(a), w.sizeA)
	if err != nil {
		return err
	}
	evs, _, err := rd.ReadAllParallel(0)
	if err != nil {
		return err
	}
	w.traceA = analysis.Build(evs, rd.Meta().ClockHz, event.Default)
	if w.pid, err = busiestPid(w.traceA, e.seed); err != nil {
		return err
	}
	// The oracle round.
	w.have = false
	p, s := w.ops()
	if err := p.run(e); err != nil {
		return err
	}
	if err := s.run(e); err != nil {
		return err
	}
	w.oracle, w.oracle2, w.have = w.got, w.got2, true
	return s.check(e)
}

func (w *offlineAnalysis) teardown() {}

func (w *offlineAnalysis) ops() (op, op) {
	primary := op{
		run: func(e *env) error {
			// What ktrace.OpenTraceFileParallel does, taken apart so that the
			// reader and the trace builder get a span each.
			sp := e.tr.beginAlloc("stream.decode")
			f, err := os.Open(w.pathA)
			if err != nil {
				return err
			}
			defer f.Close()
			rd, err := stream.NewReader(f, w.sizeA)
			if err != nil {
				return err
			}
			evs, _, err := rd.ReadAllParallel(0)
			sp.end()
			if err != nil {
				return err
			}
			sp = e.tr.beginAlloc("analysis.build")
			tr := analysis.Build(evs, rd.Meta().ClockHz, event.Default)
			sp.end()

			reports := [5]struct {
				name   string
				render func(*crcWriter) error
			}{
				{"analysis.lockstat", func(c *crcWriter) error { return tr.LockStatParallel(0).Format(c, 0) }},
				{"analysis.overview", func(c *crcWriter) error { return analysis.FormatOverview(c, tr.OverviewParallel(0)) }},
				{"analysis.profile", func(c *crcWriter) error { return tr.ProfileParallel(w.pid, 0).Format(c, 0) }},
				{"analysis.timebreak", func(c *crcWriter) error { return tr.TimeBreakParallel(w.pid, 0).Format(c) }},
				{"analysis.memprofile", func(c *crcWriter) error { return tr.MemProfileParallel(0).Format(c, 0) }},
			}
			for i, r := range reports {
				sp := e.tr.beginAlloc(r.name)
				var c crcWriter
				err := r.render(&c)
				sp.end()
				if err != nil {
					return err
				}
				if c.n == 0 {
					return fmt.Errorf("%s report is empty", r.name)
				}
				w.got[i] = c.crc
			}
			return nil
		},
		check: func(e *env) error {
			if w.got != w.oracle {
				return fmt.Errorf("report CRCs %08x, oracle round gave %08x", w.got, w.oracle)
			}
			return nil
		},
	}
	secondary := op{
		run: func(e *env) error {
			// What ktrace.SalvageTraceFile does, taken apart the same way.
			sp := e.tr.beginAlloc("stream.salvage")
			f, err := os.Open(w.pathB)
			if err != nil {
				return err
			}
			defer f.Close()
			fi, err := f.Stat()
			if err != nil {
				return err
			}
			evs, rep, err := stream.Salvage(f, fi.Size(), 0)
			sp.end()
			if err != nil {
				return err
			}
			w.rep = rep
			sp = e.tr.begin("analysis.build_damaged")
			b := analysis.Build(evs, rep.Meta.ClockHz, event.Default)
			sp.end()
			sp = e.tr.beginAlloc("diff.diff")
			d := diff.Diff(w.traceA, b, diff.Options{LabelA: "coarse", LabelB: "tuned-damaged"})
			sp.end()
			sp = e.tr.beginAlloc("diff.format")
			var c crcWriter
			err = d.Format(&c, 0)
			sp.end()
			w.got2 = c.crc
			return err
		},
		check: func(e *env) error {
			rep := w.rep
			if rep.BlocksSkipped != 1 || len(rep.Skipped) != 1 || rep.Skipped[0].Block != w.flipped ||
				rep.TailBytes != w.tail || rep.Stats.SkippedWords == 0 {
				return fmt.Errorf("salvage found other damage than was planted (block %d flipped, %d tail bytes): %v",
					w.flipped, w.tail, rep)
			}
			if w.have && w.got2 != w.oracle2 {
				return fmt.Errorf("diff CRC %08x, oracle round gave %08x", w.got2, w.oracle2)
			}
			if e.tr.enabled() {
				w.quarantined = append(w.quarantined, float64(rep.BlocksSkipped))
			}
			return nil
		},
	}
	return primary, secondary
}

func (w *offlineAnalysis) probes(e *env) error { return nil }

func (w *offlineAnalysis) layers(e *env, spans []span, m metrics) {
	ms := func(name string) float64 { return roundMedian(spans, name, spanMs) }
	mb := func(name string) float64 { return roundMedian(spans, name, spanAllocMB) }
	decode := ms("stream.decode")
	m.set("stream.decode_ms", decode)
	if decode > 0 {
		m.set("stream.decode_mb_per_s", float64(w.sizeA)/(1<<20)/(decode/1e3))
	}
	m.set("stream.decode_alloc_mb", mb("stream.decode"))
	m.set("stream.salvage_ms", ms("stream.salvage"))
	m.set("stream.salvage_blocks_quarantined", median(w.quarantined))
	m.set("analysis.build_ms", ms("analysis.build"))
	var alloc float64
	for _, r := range []string{"lockstat", "overview", "profile", "timebreak", "memprofile"} {
		m.set("analysis."+r+"_ms", ms("analysis."+r))
		alloc += mb("analysis." + r)
	}
	m.set("analysis.alloc_mb", alloc+mb("analysis.build"))
	m.set("diff.diff_ms", ms("diff.diff"))
	m.set("diff.format_ms", ms("diff.format"))
	m.set("diff.alloc_mb", mb("diff.diff")+mb("diff.format"))
}
