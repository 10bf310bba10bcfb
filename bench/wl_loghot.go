package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/shm"
	"k42trace/internal/stream"
)

// logHot is the paper's headline path: one goroutine logs a fixed mix of
// Log0..Log4 events into a Stream-mode buffer ring that stream.Capture
// drains. The primary op logs through core.Tracer.CPU(0); the secondary
// logs the same sequence through an attached shm client, so a change to
// reserve/commit/seal moves both and a change to the segment layout, the
// lease table or the doorbell moves only the secondary.
type logHot struct {
	events int
	salt   uint64 // from the seed: payload values, never the amount of work

	tr   *core.Tracer
	wait func() (stream.CaptureStats, error)
	sink *countingWriter

	ag      *shm.Agent
	cl      *shm.Client
	segPath string

	// traced-run accumulators
	coreStats       core.Stats
	captured        int64
	capturedEvents  int64
	createAttachMs  []float64
	plogNs, batchNs []float64
	maskOffNs       []float64
}

const (
	hotBufWords = 16384
	hotNumBufs  = 8
)

// logger is the part of core.CPU and shm.CPU the mix uses.
type logger interface {
	Log0(major event.Major, minor uint16) bool
	Log1(major event.Major, minor uint16, d0 uint64) bool
	Log2(major event.Major, minor uint16, d0, d1 uint64) bool
	Log3(major event.Major, minor uint16, d0, d1, d2 uint64) bool
	Log4(major event.Major, minor uint16, d0, d1, d2, d3 uint64) bool
}

// logMix logs n events in the fixed 1:3:2:1:1 mix of Log0..Log4, chosen
// by i&7. Whether every one was accepted is the tracer's count to give.
func logMix(c logger, n int, salt uint64) {
	for i := 0; i < n; i++ {
		v := uint64(i) ^ salt
		switch i & 7 {
		case 0:
			c.Log0(event.MajorTest, 1)
		case 1, 2, 3:
			c.Log1(event.MajorTest, 2, v)
		case 4, 5:
			c.Log2(event.MajorTest, 3, v, v>>7)
		case 6:
			c.Log3(event.MajorTest, 4, v, v>>7, v>>13)
		default:
			c.Log4(event.MajorTest, 5, v, v>>7, v>>13, v>>19)
		}
	}
}

func (w *logHot) setup(e *env) error {
	w.events = 1_000_000
	if e.small {
		w.events = 50_000
	}
	w.salt = uint64(e.seed) * 0x9e3779b97f4a7c15
	w.segPath = filepath.Join(e.dir, "hot.seg")
	return nil
}

func (w *logHot) teardown() {}

func (w *logHot) checkDrain(st core.Stats, cs stream.CaptureStats, err error) error {
	if err != nil {
		return err
	}
	if st.Events != uint64(w.events) || st.Dropped != 0 {
		return fmt.Errorf("logged %d events, dropped %d, want %d and 0", st.Events, st.Dropped, w.events)
	}
	meta := stream.Meta{BufWords: hotBufWords, CPUs: 1, ClockHz: 1e9}
	g := meta.Geometry()
	if want := int64(g.FileHeaderBytes + cs.Blocks*g.BlockBytes); w.sink.n != want || cs.Anomalies != 0 {
		return fmt.Errorf("captured %d bytes in %d blocks (%d anomalous), want %d bytes",
			w.sink.n, cs.Blocks, cs.Anomalies, want)
	}
	return nil
}

func (w *logHot) ops() (op, op) {
	var cs stream.CaptureStats
	var drainErr error
	primary := op{
		prep: func(e *env) error {
			tr, err := core.New(core.Config{CPUs: 1, BufWords: hotBufWords, NumBufs: hotNumBufs,
				Mode: core.Stream, OnFull: core.Block})
			if err != nil {
				return err
			}
			tr.EnableAll()
			w.tr, w.sink = tr, &countingWriter{}
			w.wait = stream.CaptureAsync(tr, w.sink)
			return nil
		},
		run: func(e *env) error {
			sp := e.tr.begin("core.log")
			logMix(w.tr.CPU(0), w.events, w.salt)
			sp.end()
			sp = e.tr.begin("core.stop")
			w.tr.Stop()
			sp.end()
			sp = e.tr.begin("stream.capture_tail")
			cs, drainErr = w.wait()
			sp.end()
			return nil
		},
		check: func(e *env) error {
			st := w.tr.Stats()
			if e.tr.enabled() {
				w.coreStats = w.coreStats.Add(st)
				w.captured += w.sink.n
				w.capturedEvents += int64(st.Events)
			}
			return w.checkDrain(st, cs, drainErr)
		},
	}
	secondary := op{
		prep: func(e *env) error {
			start := time.Now()
			ag, err := shm.Create(w.segPath, shm.Geometry{CPUs: 1, BufWords: hotBufWords,
				NumBufs: hotNumBufs, MaxClients: 4})
			if err != nil {
				return err
			}
			cl, err := shm.Attach(w.segPath)
			if err != nil {
				ag.Stop()
				ag.Close()
				return err
			}
			if e.tr.enabled() {
				w.createAttachMs = append(w.createAttachMs, float64(time.Since(start))/1e6)
			}
			w.ag, w.cl, w.sink = ag, cl, &countingWriter{}
			w.wait = stream.CaptureAsync(ag, w.sink)
			return nil
		},
		run: func(e *env) error {
			sp := e.tr.begin("shm.log")
			logMix(w.cl.CPU(0), w.events, w.salt)
			sp.end()
			sp = e.tr.begin("shm.stop")
			drainErr = w.cl.Detach()
			w.ag.Stop()
			sp.end()
			sp = e.tr.begin("stream.capture_tail")
			var err error
			if cs, err = w.wait(); drainErr == nil {
				drainErr = err
			}
			sp.end()
			return nil
		},
		check: func(e *env) error {
			err := w.checkDrain(w.ag.Stats(), cs, drainErr)
			if cerr := w.ag.Close(); err == nil {
				err = cerr
			}
			return err
		},
	}
	return primary, secondary
}

// probes times the three other receivers of the Log0..Log4 bodies and the
// disabled-major mask check, none of which the ops reach: the per-P fast
// path (PLog1..4, 64-word batches), an explicit Batch, and a call whose
// major is masked off.
//
// The per-P probe uses CPUs = GOMAXPROCS. With CPUs: 1, BatchWords: 64 and
// GOMAXPROCS=2 the same loop livelocks in Arena.reserve (README, "Known
// hazard"); the 30 s watchdog is what would catch it here.
func (w *logHot) probes(e *env) error {
	n := w.events / 4
	procs := runtime.GOMAXPROCS(0)

	tr, err := core.New(core.Config{CPUs: procs, BufWords: hotBufWords, NumBufs: hotNumBufs,
		Mode: core.Stream, OnFull: core.Block, BatchWords: 64})
	if err != nil {
		return err
	}
	tr.EnableAll()
	wait := stream.CaptureAsync(tr, &countingWriter{})
	start := time.Now()
	for i := 0; i < n; i++ {
		v := uint64(i) ^ w.salt
		switch i & 3 {
		case 0:
			tr.PLog1(event.MajorTest, 2, v)
		case 1:
			tr.PLog2(event.MajorTest, 3, v, v>>7)
		case 2:
			tr.PLog3(event.MajorTest, 4, v, v>>7, v>>13)
		default:
			tr.PLog4(event.MajorTest, 5, v, v>>7, v>>13, v>>19)
		}
	}
	plog := time.Since(start)
	tr.Stop()
	if _, err := wait(); err != nil {
		return err
	}
	if st := tr.Stats(); st.Events != uint64(n) {
		return fmt.Errorf("per-P probe logged %d of %d events", st.Events, n)
	}
	w.plogNs = append(w.plogNs, float64(plog)/float64(n))

	tr, err = core.New(core.Config{CPUs: 1, BufWords: hotBufWords, NumBufs: hotNumBufs,
		Mode: core.Stream, OnFull: core.Block})
	if err != nil {
		return err
	}
	tr.EnableAll()
	wait = stream.CaptureAsync(tr, &countingWriter{})
	c := tr.CPU(0)
	var b core.Batch
	start = time.Now()
	for i := 0; i < n; i++ {
		if i&15 == 0 && !c.OpenBatch(&b, event.MajorTest, 64) {
			return fmt.Errorf("batch probe: OpenBatch refused")
		}
		v := uint64(i) ^ w.salt
		b.Log2(event.MajorTest, 3, v, v>>7)
	}
	b.Close()
	batch := time.Since(start)
	// A major that is masked off: the whole cost is the mask check.
	tr.Disable(event.MajorNet)
	start = time.Now()
	for i := 0; i < n; i++ {
		c.Log1(event.MajorNet, 1, uint64(i))
	}
	off := time.Since(start)
	tr.Stop()
	if _, err := wait(); err != nil {
		return err
	}
	if st := tr.Stats(); st.Events != uint64(n) {
		return fmt.Errorf("batch probe logged %d of %d events", st.Events, n)
	}
	w.batchNs = append(w.batchNs, float64(batch)/float64(n))
	w.maskOffNs = append(w.maskOffNs, float64(off)/float64(n))
	return nil
}

func (w *logHot) layers(e *env, spans []span, m metrics) {
	n := float64(w.events)
	nsPerEvent := func(name string) float64 { return roundMedian(spans, name, spanMs) * 1e6 / n }
	m.set("core.log_ns_per_event", nsPerEvent("core.log"))
	m.set("shm.log_ns_per_event", nsPerEvent("shm.log"))
	m.set("core.plog_ns_per_event", median(w.plogNs))
	m.set("core.batch_ns_per_event", median(w.batchNs))
	m.set("core.mask_off_ns_per_call", median(w.maskOffNs))
	if st := w.coreStats; st.Events > 0 {
		mev := float64(st.Events) / 1e6
		m.set("core.cas_retries_per_mevent", float64(st.Retries)/mev)
		m.set("core.block_waits_per_mevent", float64(st.BlockWaits)/mev)
		m.set("core.filler_words_frac", float64(st.FillerWords)/float64(st.Words+st.FillerWords))
	}
	m.set("shm.create_attach_ms", median(w.createAttachMs))
	if w.capturedEvents > 0 {
		m.set("stream.capture_bytes_per_event", float64(w.captured)/float64(w.capturedEvents))
	}
}
