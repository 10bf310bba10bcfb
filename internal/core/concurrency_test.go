package core

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"k42trace/internal/clock"
	"k42trace/internal/event"
)

// TestConcurrentVariableLengthProperty is the central correctness property
// of the lockless algorithm (paper Fig. 1/2): many goroutines logging
// variable-length events into the same CPU slots concurrently must produce
// buffers in which
//
//	(1) every logged event is recovered exactly once (no overlap, no loss),
//	(2) no buffer is garbled,
//	(3) every buffer begins with a clock anchor,
//	(4) per-CPU timestamps are monotonically non-decreasing.
func TestConcurrentVariableLengthProperty(t *testing.T) {
	const (
		cpus    = 4
		writers = 3 // goroutines per CPU slot — forces CAS contention
		per     = 3000
	)
	tr := MustNew(Config{CPUs: cpus, BufWords: 128, NumBufs: 4, Mode: Stream,
		Clock: clock.NewManual(1)})
	tr.EnableAll()
	done, stop := collect(tr)

	var wg sync.WaitGroup
	for cpu := 0; cpu < cpus; cpu++ {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(cpu, w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(cpu*100 + w)))
				c := tr.CPU(cpu)
				for i := 0; i < per; i++ {
					// Unique tag per event so recovery can be checked
					// exactly: tag = cpu*1e9 + w*1e7 + i.
					tag := uint64(cpu)*1e9 + uint64(w)*1e7 + uint64(i)
					n := rng.Intn(6) // 0..5 payload words after the tag
					data := make([]uint64, n+1)
					data[0] = tag
					for j := 1; j <= n; j++ {
						data[j] = tag ^ uint64(j)
					}
					if !c.LogWords(event.MajorTest, uint16(n), data) {
						t.Errorf("event dropped in Block mode")
						return
					}
				}
			}(cpu, w)
		}
	}
	wg.Wait()
	stop()
	bufs := <-done

	// Buffers arrive in seal order, and with several writers per slot
	// buffer N+1 can take its last commit, and seal, before buffer N.
	// Property (4) is about the stream, so walk it in stream order.
	sort.Slice(bufs, func(i, j int) bool {
		if bufs[i].cpu != bufs[j].cpu {
			return bufs[i].cpu < bufs[j].cpu
		}
		return bufs[i].seq < bufs[j].seq
	})
	seen := make(map[uint64]bool)
	lastTime := make(map[int]uint64)
	for _, b := range bufs {
		evs, st := DecodeBuffer(b.cpu, b.words)
		if st.Garbled() {
			t.Fatalf("cpu %d seq %d garbled: %+v", b.cpu, b.seq, st)
		}
		if len(evs) == 0 || evs[0].Minor() != event.CtrlClockAnchor {
			t.Fatalf("cpu %d seq %d: no leading anchor", b.cpu, b.seq)
		}
		for _, e := range evs {
			if e.Time < lastTime[b.cpu] {
				t.Fatalf("cpu %d: time %d < %d", b.cpu, e.Time, lastTime[b.cpu])
			}
			lastTime[b.cpu] = e.Time
			if e.Major() != event.MajorTest {
				continue
			}
			tag := e.Data[0]
			if seen[tag] {
				t.Fatalf("event %d recovered twice", tag)
			}
			seen[tag] = true
			// Payload integrity: the event's own length field governs.
			if int(e.Minor()) != len(e.Data)-1 {
				t.Fatalf("event %d: minor %d but %d payload words", tag, e.Minor(), len(e.Data)-1)
			}
			for j := 1; j < len(e.Data); j++ {
				if e.Data[j] != tag^uint64(j) {
					t.Fatalf("event %d word %d corrupted", tag, j)
				}
			}
		}
	}
	want := cpus * writers * per
	if len(seen) != want {
		t.Fatalf("recovered %d events, want %d", len(seen), want)
	}
}

// gateClock wraps a Manual clock and blocks the Nth read until released,
// letting the ablation test force the exact interleaving the paper warns
// about: "that process may be interrupted by another process [which] gets
// the next slot in the buffer, but obtains an earlier timestamp."
type gateClock struct {
	inner   *clock.Manual
	gate    chan struct{}
	blockOn int32
	reads   int32
	mu      sync.Mutex
	blocked chan struct{} // closed when the gated reader has arrived
}

func newGateClock(blockOn int32) *gateClock {
	return &gateClock{
		inner:   clock.NewManual(1),
		gate:    make(chan struct{}),
		blocked: make(chan struct{}),
		blockOn: blockOn,
	}
}

func (g *gateClock) Now(cpu int) uint64 {
	g.mu.Lock()
	g.reads++
	n := g.reads
	g.mu.Unlock()
	v := g.inner.Now(cpu)
	if n == g.blockOn {
		close(g.blocked)
		<-g.gate
	}
	return v
}

func (g *gateClock) Hz() uint64 { return 1e9 }

// TestStaleTimestampAblation demonstrates deterministically why the
// timestamp must be re-read inside the CAS loop. Process A reads its
// timestamp and is then "interrupted"; process B logs an event, taking the
// next slot with a later stamp; A resumes. With the stale pre-loop read, A
// completes its reservation with the old stamp in a later slot — a
// monotonicity violation. With the correct in-loop read, A's CAS fails
// (the index moved), it re-reads the clock, and the stream stays monotone.
func TestStaleTimestampAblation(t *testing.T) {
	run := func(stale bool) (violations int) {
		// Count the clock reads so we can gate process A's timestamp read.
		// Correct mode: seed Log reads #1 (slow path/anchor); A's in-loop
		// read is #2. Stale mode: seed Log reads #1 (wasted pre-loop read)
		// and #2 (slow path); A's pre-loop read is #3.
		blockOn := int32(2)
		if stale {
			blockOn = 3
		}
		g := newGateClock(blockOn)
		tr := MustNew(Config{CPUs: 1, BufWords: 1024, NumBufs: 4,
			Clock: g, UnsafeStaleTimestamp: stale})
		tr.EnableAll()
		// Seed the buffer so the anchor's slow path is out of the way.
		tr.CPU(0).Log1(event.MajorTest, 0, 0)
		aDone := make(chan struct{})
		go func() { // process A
			tr.CPU(0).Log1(event.MajorTest, 1, 0) // timestamp read blocks on the gate
			close(aDone)
		}()
		<-g.blocked                           // A has read its timestamp and is now "interrupted"
		tr.CPU(0).Log1(event.MajorTest, 2, 0) // process B takes the next slot
		close(g.gate)                         // A resumes
		<-aDone
		evs, _ := tr.Dump(0)
		// Inspect the raw 32-bit header stamps: the decoder would otherwise
		// paper over a backwards stamp by treating it as a counter wrap.
		var prev uint32
		for _, e := range evs {
			if ts := e.Header.Timestamp(); ts < prev {
				violations++
			} else {
				prev = ts
			}
		}
		return violations
	}
	if v := run(false); v != 0 {
		t.Errorf("correct algorithm produced %d monotonicity violations", v)
	}
	if v := run(true); v == 0 {
		t.Error("stale-timestamp ablation produced no violation; the paper's bug should appear")
	}
}

// TestDumpWhileLogging exercises the live flight-recorder peek: dumps
// racing with writers must be race-free (the drain protocol) and must
// always decode cleanly.
func TestDumpWhileLogging(t *testing.T) {
	tr := MustNew(Config{CPUs: 2, BufWords: 64, NumBufs: 4})
	tr.EnableAll()
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	for cpu := 0; cpu < 2; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			c := tr.CPU(cpu)
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				c.Log2(event.MajorTest, 1, uint64(cpu), uint64(i))
			}
		}(cpu)
	}
	// Let the writers make progress before and between dumps (on a
	// single-core host the main goroutine must yield explicitly).
	waitEvents := func(n uint64) {
		for tr.Stats().Events < n {
			runtime.Gosched()
		}
	}
	for i := 0; i < 50; i++ {
		waitEvents(uint64(i+1) * 20)
		evs, info := tr.Dump(i % 2)
		if info.Stats.Garbled() {
			t.Fatalf("dump %d garbled: %+v", i, info.Stats)
		}
		var prev uint64
		for _, e := range evs {
			if e.Time < prev {
				t.Fatalf("dump %d: time went backwards", i)
			}
			prev = e.Time
		}
	}
	close(stopCh)
	wg.Wait()
	// Writers must have kept making progress throughout.
	if tr.Stats().Events == 0 {
		t.Error("no events logged during dumps")
	}
}

// TestConcurrentMaskFlips flips the mask while writers log; the system
// must stay consistent (this is the "dynamically enabled" property: the
// infrastructure is always compiled in and can be toggled at runtime).
func TestConcurrentMaskFlips(t *testing.T) {
	tr := MustNew(Config{CPUs: 2, BufWords: 128, NumBufs: 4})
	var wg sync.WaitGroup
	stopCh := make(chan struct{})
	for cpu := 0; cpu < 2; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			c := tr.CPU(cpu)
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				c.Log1(event.MajorTest, 1, uint64(i))
			}
		}(cpu)
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			tr.Enable(event.MajorTest)
		} else {
			tr.Disable(event.MajorTest)
		}
	}
	tr.EnableAll()
	close(stopCh)
	wg.Wait()
	evs, info := tr.Dump(0)
	if info.Stats.Garbled() {
		t.Fatalf("garbled after mask flips: %+v", info.Stats)
	}
	_ = evs
}

// TestCrossCPUIndependence verifies the scalability precondition: logging
// on one CPU slot never touches another slot's control structures, so
// retry counts on an uncontended CPU stay zero even while another CPU is
// hammered by many writers.
func TestCrossCPUIndependence(t *testing.T) {
	// The ring holds the whole run (40000 two-word events on CPU 0). In a
	// ring that wraps, a writer descheduled between reserve and store for a
	// full lap stores into words a later writer has reserved: the
	// flight recorder's overwrite by design, a data race to the detector,
	// and not what this test is about.
	tr := MustNew(Config{CPUs: 2, BufWords: 16384, NumBufs: 8})
	tr.EnableAll()
	var wg sync.WaitGroup
	// CPU 0: heavy contention.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := tr.CPU(0)
			for i := 0; i < 5000; i++ {
				c.Log1(event.MajorTest, 1, uint64(i))
			}
		}()
	}
	// CPU 1: a single writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := tr.CPU(1)
		for i := 0; i < 5000; i++ {
			c.Log1(event.MajorTest, 1, uint64(i))
		}
	}()
	wg.Wait()
	if r := tr.cpus[1].Stats().Retries; r != 0 {
		t.Errorf("uncontended CPU had %d CAS retries; slots are not independent", r)
	}
	if tr.cpus[0].Stats().Events != 40000 || tr.cpus[1].Stats().Events != 5000 {
		t.Errorf("event counts wrong: %d/%d",
			tr.cpus[0].Stats().Events, tr.cpus[1].Stats().Events)
	}
}
