package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"k42trace/internal/clock"
	"k42trace/internal/event"
)

func TestBatchBasicRoundTrip(t *testing.T) {
	tr := MustNew(Config{CPUs: 1, BufWords: 64, NumBufs: 4, Mode: Stream,
		Clock: clock.NewManual(1)})
	tr.EnableAll()
	done, stop := collect(tr)
	c := tr.CPU(0)

	var b Batch
	if !c.OpenBatch(&b, event.MajorTest, 20) {
		t.Fatal("OpenBatch failed")
	}
	if b.remaining() != 20 {
		t.Fatalf("remaining = %d, want 20", b.remaining())
	}
	if !b.Log1(event.MajorTest, 1, 100) || !b.Log2(event.MajorTest, 2, 200, 201) ||
		!b.Log0(event.MajorTest, 3) || !b.logWords(event.MajorTest, 4, []uint64{1, 2, 3}) {
		t.Fatal("batch appends failed")
	}
	if b.events != 4 || b.remaining() != 20-(2+3+1+4) {
		t.Fatalf("events %d remaining %d", b.events, b.remaining())
	}
	b.Close()
	if b.open {
		t.Error("batch still open after Close")
	}
	b.Close() // idempotent

	st := tr.Stats()
	if st.Events != 4 || st.FastHits != 4 || st.BatchOpens != 1 {
		t.Errorf("stats events=%d fastHits=%d batchOpens=%d, want 4/4/1",
			st.Events, st.FastHits, st.BatchOpens)
	}
	// The 10-word unused tail must have been accounted as filler.
	if st.FillerWords < 10 {
		t.Errorf("filler words %d, want >= 10 (batch tail)", st.FillerWords)
	}
	stop()
	bufs := <-done
	var got []uint16
	for _, buf := range bufs {
		if buf.anom {
			t.Fatalf("unexpected anomaly in seq %d", buf.seq)
		}
		evs, st := DecodeBuffer(buf.cpu, buf.words)
		if st.Garbled() {
			t.Fatal("garbled decode")
		}
		for _, e := range evs {
			if e.Major() == event.MajorTest {
				got = append(got, e.Minor())
			}
		}
	}
	want := []uint16{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("decoded %d test events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d minor %d, want %d", i, got[i], want[i])
		}
	}
}

// TestBatchStraddlesSeal opens a batch covering a buffer's entire
// remaining capacity, so the single commit in Close is also the commit
// that completes — and seals — the buffer. Word conservation must hold:
// the buffer arrives non-anomalous with every reserved word either a
// logged event, the anchor, or filler.
func TestBatchStraddlesSeal(t *testing.T) {
	const bufWords = 32
	tr := MustNew(Config{CPUs: 1, BufWords: bufWords, NumBufs: 2, Mode: Stream,
		Clock: clock.NewManual(1)})
	tr.EnableAll()
	done, stop := collect(tr)
	c := tr.CPU(0)

	var b Batch
	// Fresh buffer: anchor takes 2 words, the batch the other 30.
	if !c.OpenBatch(&b, event.MajorTest, bufWords-anchorWords) {
		t.Fatal("OpenBatch failed")
	}
	for i := 0; i < 5; i++ {
		if !b.Log1(event.MajorTest, 1, uint64(i)) {
			t.Fatalf("append %d failed", i)
		}
	}
	b.Close() // commits 30 words -> count reaches 32 -> seals buffer 0

	if st := tr.cpus[0].SlotState(0); st != slotPending && st != slotDraining && st != slotFree {
		t.Fatalf("buffer 0 not sealed by batch close (state %s)", SlotStateName(st))
	}
	stop()
	bufs := <-done
	if len(bufs) == 0 {
		t.Fatal("no sealed buffers")
	}
	first := bufs[0]
	if first.anom {
		t.Fatal("straddle-seal buffer anomalous; batch broke word conservation")
	}
	evs, st := DecodeBuffer(first.cpu, first.words)
	if st.Garbled() || st.SkippedWords != 0 {
		t.Fatalf("decode garbled=%v skipped=%d", st.Garbled(), st.SkippedWords)
	}
	var tests int
	for _, e := range evs {
		if e.Major() == event.MajorTest {
			tests++
		}
	}
	// 5 events x 2 words after the 2-word anchor: the other 20 words of
	// the 30-word batch must decode as filler — exact word conservation.
	if tests != 5 || st.FillerWords != 20 {
		t.Errorf("decoded %d test events (want 5), %d filler words (want 20)",
			tests, st.FillerWords)
	}
}

// TestBatchAbandonedExactAccounting reproduces a writer killed mid-batch
// in lockstep: two arena views share one control/buffer region (the shm
// client arrangement, per-context in-flight cells), the victim opens a
// 20-word batch, writes 3 events (6 words), and dies — its in-flight cell
// zeroed by the "daemon" without any commit. The survivor's next need for
// the slot must seal it anomalous with the shortfall equal to the whole
// batch extent, and the decoder must skip exactly the unwritten words.
func TestBatchAbandonedExactAccounting(t *testing.T) {
	const bufWords, numBufs = 32, 2
	ctl := make([]uint64, CtlWords(numBufs))
	buf := make([]uint64, bufWords*numBufs)
	var mask atomic.Uint64
	mask.Store(^uint64(0))
	var cells [2]uint64
	total := func() uint64 {
		return atomic.LoadUint64(&cells[0]) + atomic.LoadUint64(&cells[1])
	}
	var mu sync.Mutex
	var sealedBufs []Sealed
	mk := func(cell *uint64) CPU {
		a, err := NewArena(ArenaConfig{
			Ctl: ctl, Buf: buf, Mask: &mask, Clock: clock.NewManual(1),
			BufWords: bufWords, NumBufs: numBufs, Stream: true,
			Inflight: cell, InflightTotal: total,
			// Block policy (reserveSlow only reclaims stuck slots on the
			// block path) that gives up instead of waiting: the final log
			// call seals the stuck buffer, then drops its own event.
			OnFull: func() bool { return false },
			OnSeal: func(s Sealed) {
				w := make([]uint64, len(s.Words))
				copy(w, s.Words)
				s.Words = w
				mu.Lock()
				sealedBufs = append(sealedBufs, s)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return a.Handle()
	}
	victim, survivor := mk(&cells[0]), mk(&cells[1])

	// Victim: batch [2,22) of buffer 0 (after the 2-word anchor), 3 Log1
	// events = 6 words written, never closed.
	var b Batch
	if !victim.OpenBatch(&b, event.MajorTest, 20) {
		t.Fatal("OpenBatch failed")
	}
	for i := 0; i < 3; i++ {
		if !b.Log1(event.MajorTest, 1, uint64(i)) {
			t.Fatalf("victim append %d failed", i)
		}
	}
	if got := atomic.LoadUint64(&cells[0]); got != 1 {
		t.Fatalf("open batch must hold the opener in flight, cell = %d", got)
	}
	// SIGKILL: the daemon's reap zeroes the dead client's in-flight cell.
	atomic.StoreUint64(&cells[0], 0)

	// Survivor fills the rest of buffer 0 ([22,32): 5 Log1s) and all of
	// buffer 1 ([34,64): 15 Log1s after its anchor).
	for i := 0; i < 20; i++ {
		if !survivor.Log1(event.MajorTest, 2, uint64(i)) {
			t.Fatalf("survivor log %d failed", i)
		}
	}
	// Next reservation wraps to buffer 0, finds it unreleased with a short
	// count, and — alone in flight — seals it anomalous (the event itself
	// then drops: buffer 1 is also unreleased; Drop policy).
	survivor.Log1(event.MajorTest, 3, 0)

	mu.Lock()
	defer mu.Unlock()
	var anom *Sealed
	for i := range sealedBufs {
		if sealedBufs[i].Anomalous() {
			anom = &sealedBufs[i]
		}
	}
	if anom == nil {
		t.Fatalf("no anomalous seal (got %d seals)", len(sealedBufs))
	}
	// Shortfall = the batch's entire 20-word reservation: nothing in an
	// unclosed batch is ever committed.
	if shortfall := uint64(len(anom.Words)) - anom.Committed; shortfall != 20 {
		t.Errorf("commit shortfall %d, want 20 (the whole batch extent)", shortfall)
	}
	evs, st := DecodeBuffer(anom.CPU, anom.Words)
	// The 6 written words decode as events; the 14 unwritten words are a
	// zero hole the decoder skips — exact loss accounting.
	if st.SkippedWords != 14 {
		t.Errorf("skipped %d words, want 14 (20 reserved - 6 written)", st.SkippedWords)
	}
	var victimEvents, survivorEvents int
	for _, e := range evs {
		if e.Major() != event.MajorTest {
			continue
		}
		switch e.Minor() {
		case 1:
			victimEvents++
		case 2:
			survivorEvents++
		}
	}
	if victimEvents != 3 || survivorEvents != 5 {
		t.Errorf("decoded %d victim + %d survivor events, want 3 + 5",
			victimEvents, survivorEvents)
	}
	if st := victim.a.Stats(); st.StuckSeals != 1 {
		t.Errorf("stuck seals %d, want 1", st.StuckSeals)
	}
}

func TestBatchOpenRejections(t *testing.T) {
	tr := MustNew(Config{CPUs: 1, BufWords: 32, NumBufs: 2, Clock: clock.NewManual(1)})
	c := tr.CPU(0)
	var b Batch
	if c.OpenBatch(&b, event.MajorTest, 8) {
		t.Error("OpenBatch must fail with tracing disabled")
	}
	tr.EnableAll()
	if c.OpenBatch(&b, event.MajorTest, 31) {
		t.Error("OpenBatch must reject words > BufWords-anchorWords")
	}
	if c.OpenBatch(&b, event.MajorTest, 0) {
		t.Error("OpenBatch must reject zero words")
	}
	if !c.OpenBatch(&b, event.MajorTest, 8) {
		t.Fatal("valid OpenBatch failed")
	}
	// Appends are gated per event: a masked-off major is refused even
	// though the batch is open.
	if b.Log0(event.MajorMem, 1) {
		// MajorMem is enabled by EnableAll; narrow the mask instead.
	}
	tr.SetMask(event.MajorTest.Bit())
	if b.Log0(event.MajorMem, 1) {
		t.Error("append of masked-off major must fail")
	}
	if !b.Log0(event.MajorTest, 1) {
		t.Error("append of enabled major must succeed")
	}
	// Over-capacity append fails and leaves the batch usable.
	if b.logWords(event.MajorTest, 2, make([]uint64, 16)) {
		t.Error("append larger than remaining capacity must fail")
	}
	if !b.Log0(event.MajorTest, 3) {
		t.Error("batch must survive a failed oversized append")
	}
	b.Close()
	if b.Log0(event.MajorTest, 4) {
		t.Error("append to a closed batch must fail")
	}
}

// TestQuiesceClosesParkedBatches: the per-P fast path parks open batches
// between PLog calls, each holding its opener in flight. Quiesce (and
// ApplyMask, Stop) must close them or it would spin forever waiting for
// an in-flight count that never drops.
func TestQuiesceClosesParkedBatches(t *testing.T) {
	tr := MustNew(Config{CPUs: 1, BufWords: 64, NumBufs: 4, BatchWords: 16,
		Clock: clock.NewManual(1)})
	tr.EnableAll()
	if !tr.PLog1(event.MajorTest, 1, 42) {
		t.Fatal("PLog1 failed")
	}
	old := tr.Quiesce() // must terminate despite the parked batch
	if old == 0 {
		t.Error("Quiesce returned zero previous mask")
	}
	st := tr.Stats()
	if st.Events != 1 || st.FastHits != 1 {
		t.Errorf("parked batch not flushed by Quiesce: events=%d fastHits=%d",
			st.Events, st.FastHits)
	}
	tr.SetMask(old)
	if !tr.PLog1(event.MajorTest, 1, 43) {
		t.Error("PLog1 after Quiesce+restore failed")
	}
}

// TestPLogConcurrent hammers the per-P fast path from many goroutines
// under the race detector while masks flip and buffers seal, then checks
// nothing was lost: every successful PLog is decoded exactly once.
func TestPLogConcurrent(t *testing.T) {
	tr := MustNew(Config{CPUs: 2, BufWords: 256, NumBufs: 4, Mode: Stream,
		BatchWords: 32, Clock: clock.NewSync()})
	tr.EnableAll()
	done, stop := collect(tr)

	const goroutines, perG = 8, 2000
	var logged atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 4 {
				case 0:
					if tr.PLog3(event.MajorTest, 1, uint64(g), uint64(i), 0) {
						logged.Add(1)
					}
				case 1:
					if tr.PLog1(event.MajorTest, 2, uint64(i)) {
						logged.Add(1)
					}
				case 2:
					if tr.PLog2(event.MajorTest, 3, uint64(g), uint64(i)) {
						logged.Add(1)
					}
				default:
					if tr.PLog4(event.MajorTest, 4, 1, 2, 3, uint64(i)) {
						logged.Add(1)
					}
				}
			}
		}(g)
	}
	// Concurrent control-plane traffic: ApplyMask must coexist with
	// parked batches without deadlock. It holds every shard paused while it
	// waits for a gap between logging calls, which on a busy host can be
	// the whole run, so it starts once the fast path has opened a batch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tr.Stats().BatchOpens == 0 {
			runtime.Gosched()
		}
		for i := 0; i < 20; i++ {
			tr.ApplyMask(event.MajorTest.Bit() | event.MajorControl.Bit())
			tr.ApplyMask(^uint64(0))
		}
	}()
	wg.Wait()
	stop()
	bufs := <-done

	var decoded uint64
	for _, b := range bufs {
		if b.anom {
			t.Fatalf("anomalous buffer seq %d: batches must never garble", b.seq)
		}
		evs, st := DecodeBuffer(b.cpu, b.words)
		if st.Garbled() {
			t.Fatal("garbled buffer")
		}
		for _, e := range evs {
			if e.Major() == event.MajorTest {
				decoded++
			}
		}
	}
	if decoded != logged.Load() {
		t.Errorf("decoded %d events, logged %d: fast path lost or duplicated events",
			decoded, logged.Load())
	}
	st := tr.Stats()
	if st.FastHits == 0 || st.BatchOpens == 0 {
		t.Errorf("fast path never engaged: fastHits=%d batchOpens=%d", st.FastHits, st.BatchOpens)
	}
	if st.FastHits > st.Events {
		t.Errorf("fastHits %d > events %d", st.FastHits, st.Events)
	}
}

// TestParkedBatchYieldsToBlockedLogger: a batch left open on a P that logs
// nothing more must not wedge the ring. Its buffer cannot seal while it is
// open, so once the ring wraps onto that buffer a Block-policy logger on
// the shared path waits for a release only it can bring about.
func TestParkedBatchYieldsToBlockedLogger(t *testing.T) {
	tr := MustNew(Config{CPUs: 1, BufWords: 64, NumBufs: 2, Mode: Stream,
		BatchWords: 8, Clock: clock.NewManual(1)})
	tr.EnableAll()
	done, stop := collect(tr)
	// Park a batch in the first buffer, as a PLog on a P that then goes
	// idle would leave it.
	if !tr.pArena(0).Handle().OpenBatch(&tr.pslots[0].b, event.MajorTest, 8) {
		t.Fatal("batch did not open")
	}
	const n = 200 // several times round the two-buffer ring
	logged := make(chan struct{})
	go func() {
		defer close(logged)
		for i := 0; i < n; i++ {
			tr.CPU(0).Log1(event.MajorTest, 1, uint64(i))
		}
	}()
	select {
	case <-logged:
	case <-time.After(10 * time.Second):
		t.Fatal("logger still blocked on the buffer that holds the parked batch")
	}
	stop()
	var decoded int
	for _, b := range <-done {
		evs, st := DecodeBuffer(b.cpu, b.words)
		if b.anom || st.Garbled() {
			t.Fatalf("buffer seq %d: anomalous %v, stats %+v", b.seq, b.anom, st)
		}
		for _, e := range evs {
			if e.Major() == event.MajorTest {
				decoded++
			}
		}
	}
	if decoded != n {
		t.Errorf("decoded %d events, logged %d", decoded, n)
	}
}

// TestLoggingAllocatesNothing holds the fixed-arity entry points of all
// three receivers — CPU.Log0–4, Batch.Log0–4 and Tracer.PLog1–4, whose
// first slot is a second PLog1 — to zero allocations, logging and masked off, so a shared body whose payload
// escapes to the heap cannot land silently. The flight recorder wraps, so
// every run logs.
func TestLoggingAllocatesNothing(t *testing.T) {
	tr := MustNew(Config{CPUs: 1, BufWords: 64, NumBufs: 4, BatchWords: 15,
		Clock: clock.NewManual(1)})
	tr.SetMask(event.MajorTest.Bit())
	c := tr.CPU(0)
	var b Batch
	receivers := []struct {
		name string
		log  func(m event.Major) [5]bool
	}{
		{"CPU", func(m event.Major) [5]bool {
			return [5]bool{c.Log0(m, 1), c.Log1(m, 2, 1), c.Log2(m, 3, 1, 2),
				c.Log3(m, 4, 1, 2, 3), c.Log4(m, 5, 1, 2, 3, 4)}
		}},
		{"Batch", func(m event.Major) [5]bool {
			c.OpenBatch(&b, event.MajorTest, 15)
			ok := [5]bool{b.Log0(m, 1), b.Log1(m, 2, 1), b.Log2(m, 3, 1, 2),
				b.Log3(m, 4, 1, 2, 3), b.Log4(m, 5, 1, 2, 3, 4)}
			b.Close()
			return ok
		}},
		{"PLog", func(m event.Major) [5]bool {
			return [5]bool{tr.PLog1(m, 1, 0), tr.PLog1(m, 2, 1), tr.PLog2(m, 3, 1, 2),
				tr.PLog3(m, 4, 1, 2, 3), tr.PLog4(m, 5, 1, 2, 3, 4)}
		}},
	}
	for _, r := range receivers {
		for _, m := range []event.Major{event.MajorTest, event.MajorMem} {
			var got [5]bool
			if a := testing.AllocsPerRun(100, func() { got = r.log(m) }); a != 0 {
				t.Errorf("%s, %s: %v allocations a run of Log0..Log4, want 0", r.name, m, a)
			}
			on := m == event.MajorTest
			if got != [5]bool{on, on, on, on, on} {
				t.Errorf("%s, %s: logged %v, want all %v", r.name, m, got, on)
			}
		}
	}
}

// TestPLogFallbackWithoutBatching: BatchWords 0 disables the per-P batch
// but PLog must still log through the per-P arena shard.
func TestPLogFallbackWithoutBatching(t *testing.T) {
	tr := MustNew(Config{CPUs: 2, BufWords: 64, NumBufs: 2, Clock: clock.NewManual(1)})
	tr.EnableAll()
	if !tr.PLog1(event.MajorTest, 1, 7) || !tr.PLog1(event.MajorTest, 2, 0) ||
		!tr.PLog2(event.MajorTest, 3, 1, 2) || !tr.PLog3(event.MajorTest, 4, 1, 2, 3) ||
		!tr.PLog4(event.MajorTest, 5, 1, 2, 3, 4) {
		t.Fatal("PLog without batching failed")
	}
	st := tr.Stats()
	if st.Events != 5 || st.FastHits != 0 || st.BatchOpens != 0 {
		t.Errorf("stats events=%d fastHits=%d batchOpens=%d, want 5/0/0",
			st.Events, st.FastHits, st.BatchOpens)
	}
	tr.SetMask(0)
	if tr.PLog1(event.MajorTest, 9, 0) {
		t.Error("PLog with tracing disabled must return false")
	}
}
