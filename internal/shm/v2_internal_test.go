package shm

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"k42trace/internal/event"
)

// TestFutureVersionRejected: a segment of any version but segVersion — the
// retired version 1 as much as a newer one — is refused by Attach and by
// Inspect (and so by ktrace check -shm) with the unsupported-version error.
func TestFutureVersionRejected(t *testing.T) {
	for _, v := range []uint64{1, segVersion + 1} {
		path := filepath.Join(t.TempDir(), "v.shm")
		s, err := createSegment(path, Geometry{CPUs: 1, BufWords: 64, NumBufs: 2, MaxClients: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.words[hdrVersion] = v
		wordAtomic(s.words, hdrState).Store(segReady)
		s.close()
		want := fmt.Sprintf("unsupported segment version %d", v)
		if _, err := Attach(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Attach of a version-%d segment: %v, want %q", v, err, want)
		}
		if _, err := Inspect(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Inspect of a version-%d segment: %v, want %q", v, err, want)
		}
	}
}

// TestDoorbellEventcount exercises the futex doorbell directly: a waiter
// parked on the current value is released by ring(), and a waiter whose
// snapshot is already stale returns immediately instead of sleeping.
func TestDoorbellEventcount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bell.shm")
	s, err := createSegment(path, Geometry{CPUs: 1, BufWords: 64, NumBufs: 2, MaxClients: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	bell := wordAtomic(s.words, hdrDoorbell)
	wait := wordAtomic(s.words, hdrAgentWait)
	fw := doorbellFutexWord(s.words)

	// Stale snapshot: returns without consuming the long timeout.
	start := time.Now()
	futexWait(fw, uint32(bell.Load())+1, 10*time.Second)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stale-value futexWait slept %v", elapsed)
	}

	// Parked waiter released by a ring. The producer-side fast path
	// (agentWait == 0) must not syscall, so first prove ring alone is
	// harmless, then park for real.
	s.ring()
	released := make(chan time.Duration, 1)
	snap := bell.Load()
	wait.Store(1)
	go func() {
		begin := time.Now()
		futexWait(fw, uint32(snap), 10*time.Second)
		released <- time.Since(begin)
	}()
	time.Sleep(10 * time.Millisecond)
	s.ring()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("ring did not release the parked waiter")
	}
	wait.Store(0)
	if bell.Load() != snap+1 {
		t.Errorf("doorbell %d, want %d", bell.Load(), snap+1)
	}
}

// TestSealRingsDoorbell: a client commit that seals a buffer must bump
// the doorbell so the agent need not poll.
func TestSealRingsDoorbell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sealbell.shm")
	ag, err := Create(path, Geometry{CPUs: 1, BufWords: 64, NumBufs: 4, MaxClients: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range ag.Sealed() {
			ag.Release(s)
		}
	}()
	c, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	before := wordAtomic(ag.seg.words, hdrDoorbell).Load()
	cpu := c.CPU(0)
	for i := 0; i < 200; i++ { // plenty to seal several 64-word buffers
		cpu.Log1(event.MajorTest, 1, uint64(i))
	}
	if after := wordAtomic(ag.seg.words, hdrDoorbell).Load(); after == before {
		t.Error("sealing commits never rang the doorbell")
	}
	if err := c.Detach(); err != nil {
		t.Fatal(err)
	}
	ag.Stop()
	<-done
	ag.Close()
}

// TestLeaseTimebaseMonotonic: version-2 lease stamps are monotonic ticks,
// and Inspect's ages are computed in that timebase — small positive
// durations, not epoch-scale garbage (the v1 bug this replaced: wall
// "now" minus a stamp from a different timebase).
func TestLeaseTimebaseMonotonic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease.shm")
	g := Geometry{CPUs: 1, BufWords: 64, NumBufs: 2, MaxClients: 2, DeterministicClock: true}
	ag, err := Create(path, g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * reapInterval) // let the scan refresh the lease at least once
	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Clients) != 1 {
		t.Fatalf("%d clients, want 1", len(info.Clients))
	}
	ci := info.Clients[0]
	if ci.RegAgeNano < 0 || ci.RegAgeNano > int64(time.Minute) {
		t.Errorf("registration age %v out of range", time.Duration(ci.RegAgeNano))
	}
	if ci.LeaseAgeNano < 0 || ci.LeaseAgeNano > int64(time.Minute) {
		t.Errorf("lease age %v out of range", time.Duration(ci.LeaseAgeNano))
	}
	// The scan stamped the lease after attach, so the lease is fresher.
	if ci.LeaseAgeNano > ci.RegAgeNano {
		t.Errorf("lease age %v older than registration age %v",
			time.Duration(ci.LeaseAgeNano), time.Duration(ci.RegAgeNano))
	}
	// Deterministic *event* clock must not leak into lease bookkeeping:
	// the per-CPU tick counter advances only by reservations.
	ticks := atomic.LoadUint64(&ag.seg.words[ag.seg.lay.clockWord(0)])
	if ticks != 0 {
		t.Errorf("deterministic clock advanced %d ticks by lease traffic alone", ticks)
	}
	if err := c.Detach(); err != nil {
		t.Fatal(err)
	}
	drainAndClose(t, ag)
}

func drainAndClose(t *testing.T, ag *Agent) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range ag.Sealed() {
			ag.Release(s)
		}
	}()
	ag.Stop()
	<-done
	if err := ag.Close(); err != nil {
		t.Fatal(err)
	}
}
