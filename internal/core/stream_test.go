package core

import (
	"runtime"
	"sync"
	"testing"

	"k42trace/internal/clock"
	"k42trace/internal/event"
)

// collect consumes the Sealed channel until it closes, copying buffer
// contents (since Release recycles them) and returning the raw words per
// (cpu, seq) in order.
type collected struct {
	cpu   int
	seq   uint64
	words []uint64
	anom  bool
	part  bool
}

func collect(tr *Tracer) (<-chan []collected, func()) {
	done := make(chan []collected, 1)
	go func() {
		var out []collected
		for s := range tr.Sealed() {
			w := make([]uint64, len(s.Words))
			copy(w, s.Words)
			out = append(out, collected{cpu: s.CPU, seq: s.Seq, words: w,
				anom: s.Anomalous(), part: s.Partial})
			tr.Release(s)
		}
		done <- out
	}()
	return done, tr.Stop
}

func TestStreamSealsInOrder(t *testing.T) {
	tr := MustNew(Config{CPUs: 1, BufWords: 64, NumBufs: 4, Mode: Stream,
		Clock: clock.NewManual(1)})
	tr.EnableAll()
	done, stop := collect(tr)
	c := tr.CPU(0)
	const n = 300
	for i := 0; i < n; i++ {
		c.Log1(event.MajorTest, 1, uint64(i))
	}
	stop()
	bufs := <-done
	if len(bufs) == 0 {
		t.Fatal("no sealed buffers")
	}
	var next uint64
	var payloads []uint64
	for _, b := range bufs {
		if b.seq != next {
			t.Fatalf("seq %d, want %d", b.seq, next)
		}
		next++
		if b.anom {
			t.Fatalf("unexpected anomaly in seq %d", b.seq)
		}
		evs, st := DecodeBuffer(b.cpu, b.words)
		if st.Garbled() {
			t.Fatalf("garbled buffer %d", b.seq)
		}
		if len(evs) == 0 || evs[0].Minor() != event.CtrlClockAnchor {
			t.Fatalf("buffer %d does not start with clock anchor", b.seq)
		}
		for _, e := range evs {
			if e.Major() == event.MajorTest {
				payloads = append(payloads, e.Data[0])
			}
		}
	}
	if len(payloads) != n {
		t.Fatalf("got %d events, want %d (lossless Block mode)", len(payloads), n)
	}
	for i, p := range payloads {
		if p != uint64(i) {
			t.Fatalf("payload %d = %d", i, p)
		}
	}
	// Last buffer should be the flush partial.
	if !bufs[len(bufs)-1].part {
		t.Error("expected trailing partial from flush")
	}
}

func TestStreamBlockIsLossless(t *testing.T) {
	tr := MustNew(Config{CPUs: 4, BufWords: 64, NumBufs: 2, Mode: Stream, OnFull: Block})
	tr.EnableAll()
	done, stop := collect(tr)
	const per = 2000
	var wg sync.WaitGroup
	for cpu := 0; cpu < 4; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			c := tr.CPU(cpu)
			for i := 0; i < per; i++ {
				for !c.Log2(event.MajorTest, 1, uint64(cpu), uint64(i)) {
					t.Error("Block mode must not drop")
					return
				}
			}
		}(cpu)
	}
	wg.Wait()
	stop()
	bufs := <-done
	got := map[int]int{}
	for _, b := range bufs {
		evs, st := DecodeBuffer(b.cpu, b.words)
		if st.Garbled() {
			t.Fatalf("garbled buffer cpu %d seq %d", b.cpu, b.seq)
		}
		for _, e := range evs {
			if e.Major() == event.MajorTest {
				got[int(e.Data[0])]++
			}
		}
	}
	for cpu := 0; cpu < 4; cpu++ {
		if got[cpu] != per {
			t.Errorf("cpu %d: got %d events, want %d", cpu, got[cpu], per)
		}
	}
	if tr.Stats().Dropped != 0 {
		t.Errorf("Dropped = %d in Block mode", tr.Stats().Dropped)
	}
}

func TestStreamDropPolicyDoesNotBlock(t *testing.T) {
	// No consumer at all: with Drop policy the writer must keep returning
	// promptly, dropping once all buffers are pending.
	tr := MustNew(Config{CPUs: 1, BufWords: 32, NumBufs: 2, Mode: Stream, OnFull: Drop})
	tr.EnableAll()
	c := tr.CPU(0)
	for i := 0; i < 500; i++ {
		c.Log1(event.MajorTest, 1, uint64(i))
	}
	st := tr.Stats()
	if st.Dropped == 0 {
		t.Error("expected drops with no consumer")
	}
	if st.Events+st.Dropped != 500 {
		t.Errorf("events %d + dropped %d != 500", st.Events, st.Dropped)
	}
}

// TestStopUnblocksWritersWaitingOnFullBuffers: with a dead consumer,
// writers under the Block policy spin waiting for a slot; Stop must make
// them bail out (returning false) rather than wedging shutdown.
func TestStopUnblocksWritersWaitingOnFullBuffers(t *testing.T) {
	tr := MustNew(Config{CPUs: 1, BufWords: 32, NumBufs: 2, Mode: Stream,
		OnFull: Block})
	tr.EnableAll()
	writerDone := make(chan int)
	go func() {
		c := tr.CPU(0)
		logged := 0
		for i := 0; i < 10_000; i++ {
			if !c.Log1(event.MajorTest, 1, uint64(i)) {
				break // dropped during shutdown
			}
			logged++
		}
		writerDone <- logged
	}()
	// Give the writer time to fill both buffers and start blocking, then
	// stop the tracer; the writer must finish promptly.
	for tr.Stats().BlockWaits == 0 {
		runtime.Gosched()
	}
	tr.Stop()
	logged := <-writerDone
	if logged == 0 || logged == 10_000 {
		t.Fatalf("writer logged %d events; expected to be cut off mid-run", logged)
	}
	if tr.Stats().Dropped == 0 {
		t.Error("shutdown should count the dropped event")
	}
}

// TestNegativePayloadReservesNothing: a fault injector asked for a
// negative payload must not leave a zero-length "killed writer" behind —
// no anchor, no index move, nothing in flight.
func TestNegativePayloadReservesNothing(t *testing.T) {
	tr := MustNew(Config{CPUs: 1, BufWords: 32, NumBufs: 2, Mode: Stream,
		Clock: clock.NewManual(1)})
	tr.EnableAll()
	c, a := tr.CPU(0), tr.cpus[0]
	if c.ReserveOnly(event.MajorTest, 2, -1) {
		t.Error("ReserveOnly(-1) reserved")
	}
	if _, ok := c.ReserveHang(event.MajorTest, 2, -1); ok {
		t.Error("ReserveHang(-1) reserved")
	}
	if st := a.Stats(); st != (Stats{}) || a.Index() != 0 || a.InflightTotal() != 0 {
		t.Errorf("after refused reservations: stats %+v, index %d, in flight %d", st, a.Index(), a.InflightTotal())
	}
}

func TestC8GarbleDetection(t *testing.T) {
	// Inject the paper's failure: a writer reserves space but is "killed"
	// before logging. The buffer's commit count comes up short and the
	// write-out path reports the anomaly.
	tr := MustNew(Config{CPUs: 1, BufWords: 32, NumBufs: 2, Mode: Stream,
		Clock: clock.NewManual(1)})
	tr.EnableAll()
	done, stop := collect(tr)
	c := tr.CPU(0)
	c.Log1(event.MajorTest, 1, 7)
	if !c.ReserveOnly(event.MajorTest, 2, 3) {
		t.Fatal("ReserveOnly failed")
	}
	c.Log1(event.MajorTest, 3, 9)
	stop()
	bufs := <-done
	if len(bufs) == 0 {
		t.Fatal("no buffers flushed")
	}
	anom := 0
	for _, b := range bufs {
		if b.anom {
			anom++
			// The reserved-but-never-written region decodes as garble (the
			// words are zero) and the decoder resynchronizes past it.
			evs, st := DecodeBuffer(b.cpu, b.words)
			if st.SkippedWords == 0 {
				t.Error("expected skipped words in garbled buffer")
			}
			// The events logged after the hole must still be recovered.
			found := false
			for _, e := range evs {
				if e.Major() == event.MajorTest && e.Minor() == 3 {
					found = true
				}
			}
			if !found {
				t.Error("event after garbled hole not recovered")
			}
		}
	}
	if anom != 1 {
		t.Errorf("anomalous buffers = %d, want 1", anom)
	}
}

func TestFlushOnlyInStreamMode(t *testing.T) {
	tr, _ := newFR(t, 1, 64, 2)
	tr.EnableAll()
	tr.CPU(0).Log0(event.MajorTest, 1)
	tr.Flush() // no-op in flight-recorder mode; must not panic or push
	select {
	case s := <-tr.Sealed():
		t.Fatalf("unexpected sealed buffer %v", s.Seq)
	default:
	}
}

func TestReleasePartialIsNoop(t *testing.T) {
	tr := MustNew(Config{CPUs: 1, BufWords: 64, NumBufs: 2, Mode: Stream})
	tr.EnableAll()
	tr.CPU(0).Log0(event.MajorTest, 1)
	tr.Stop()
	for s := range tr.Sealed() {
		if s.Partial {
			tr.Release(s) // must not corrupt slot state
		}
	}
}

func TestSealedChannelClosesAfterStop(t *testing.T) {
	tr := MustNew(Config{CPUs: 2, BufWords: 64, NumBufs: 2, Mode: Stream})
	tr.EnableAll()
	tr.CPU(0).Log0(event.MajorTest, 1)
	tr.Stop()
	n := 0
	for range tr.Sealed() {
		n++
	}
	if n != 1 {
		t.Errorf("expected exactly 1 flushed partial, got %d", n)
	}
}

func TestStreamMultiCPUIndependentSeqs(t *testing.T) {
	tr := MustNew(Config{CPUs: 3, BufWords: 32, NumBufs: 4, Mode: Stream,
		Clock: clock.NewManual(1)})
	tr.EnableAll()
	done, stop := collect(tr)
	for cpu := 0; cpu < 3; cpu++ {
		c := tr.CPU(cpu)
		for i := 0; i < 100; i++ {
			c.Log1(event.MajorTest, 1, uint64(i))
		}
	}
	stop()
	bufs := <-done
	nextSeq := map[int]uint64{}
	for _, b := range bufs {
		if b.seq != nextSeq[b.cpu] {
			t.Fatalf("cpu %d: seq %d want %d", b.cpu, b.seq, nextSeq[b.cpu])
		}
		nextSeq[b.cpu]++
	}
	for cpu := 0; cpu < 3; cpu++ {
		if nextSeq[cpu] == 0 {
			t.Errorf("cpu %d produced no buffers", cpu)
		}
	}
}
