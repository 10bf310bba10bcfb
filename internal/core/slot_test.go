package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"k42trace/internal/clock"
)

// This file drives the consumer-side slot operations over a hand-set
// control region: an arena of BufWords 16 and NumBufs 2 whose slot words
// the test writes directly, as any process mapping a shared segment can.

// slotArena returns a Stream-mode arena whose OnSeal appends to *sealed
// when sealed is non-nil.
func slotArena(t *testing.T, sealed *[]Sealed) *Arena {
	t.Helper()
	var mask atomic.Uint64
	c := ArenaConfig{
		Ctl: make([]uint64, CtlWords(2)), Buf: make([]uint64, 32),
		Mask: &mask, Clock: clock.NewManual(1),
		BufWords: 16, NumBufs: 2, Stream: true,
	}
	if sealed != nil {
		c.OnSeal = func(s Sealed) { *sealed = append(*sealed, s) }
	}
	a, err := NewArena(c)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// setSlot writes slot's state, start and committed words and the arena's
// reservation index and in-flight count.
func (a *Arena) setSlot(slot int, state, start, committed, index, inflight uint64) {
	*a.slotWord(slot, slotWState) = state
	*a.slotWord(slot, slotWStart) = start
	*a.slotWord(slot, slotWCommitted) = committed
	a.ctl[ctlIndex] = index
	a.ctl[ctlInflight] = inflight
}

// TestScribbledStartIsRefused: a slot whose start word names none of its
// generations — one stray store into a shared segment — is dropped by
// every consumer-side operation that reads it: the slot goes back to Free
// with its count zeroed, nothing is emitted and no seal is counted. Slicing
// the ring at the unaligned start 31 ran past its end and panicked the
// agent; the aligned start 32 belongs to slot 0, which its release would
// have freed instead of slot 1.
func TestScribbledStartIsRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(a *Arena, start uint64)
		run  func(a *Arena) []Sealed
	}{
		{"TakePending",
			func(a *Arena, start uint64) { a.setSlot(1, slotPending, start, 16, 48, 0) },
			func(a *Arena) []Sealed { return taken(a.TakePending(1)) }},
		{"TakeStuck",
			func(a *Arena, start uint64) { a.setSlot(1, slotInUse, start, 14, 64, 0) },
			func(a *Arena) []Sealed { return taken(a.TakeStuck(1)) }},
		{"reclaimStuck",
			func(a *Arena, start uint64) { a.setSlot(1, slotInUse, start, 14, 48, 1) },
			func(a *Arena) []Sealed {
				if a.reclaimStuck(1, 48) {
					return []Sealed{{}}
				}
				return nil
			}},
		{"FlushSlots",
			func(a *Arena, start uint64) { a.setSlot(1, slotInUse, start, 14, 56, 0) },
			func(a *Arena) []Sealed {
				var out []Sealed
				a.FlushSlots(func(s Sealed) { out = append(out, s) })
				return out
			}},
	} {
		for _, start := range []uint64{31, 32} {
			t.Run(fmt.Sprintf("%s/start=%d", tc.name, start), func(t *testing.T) {
				var sealed []Sealed
				a := slotArena(t, &sealed)
				tc.set(a, start)
				if got := tc.run(a); len(got) != 0 || len(sealed) != 0 {
					t.Errorf("emitted %d views (%d through OnSeal)", len(got), len(sealed))
				}
				if st, c := a.SlotState(1), a.SlotCommitted(1); st != slotFree || c != 0 {
					t.Errorf("slot left %s with count %d, want free with 0", SlotStateName(st), c)
				}
				if s := a.Stats(); s.Seals != 0 || s.StuckSeals != 0 {
					t.Errorf("counted %d seals, %d stuck", s.Seals, s.StuckSeals)
				}
			})
		}
	}
}

func taken(s Sealed, ok bool) []Sealed {
	if !ok {
		return nil
	}
	return []Sealed{s}
}

// TestStuckSealSidesAgree: the writer-side reclaim (the caller in flight)
// and the consumer's TakeStuck (nobody in flight) seal slot 0 under exactly
// the same conditions — it is InUse, its generation began before the
// current one, no other logger is in flight and its count is short — and
// each leaves the slot in its own claim state with the same view. The
// writer is about to enter the boundary at word 32; the consumer sees that
// index, or one inside the generation beyond it.
func TestStuckSealSidesAgree(t *testing.T) {
	states := []uint64{slotFree, slotInUse, slotPending, slotDraining}
	starts := []struct {
		name         string
		start, index uint64
	}{
		{"behind", 0, 32},
		{"current-at-boundary", 32, 32},
		{"current-mid-fill", 32, 37},
	}
	for _, state := range states {
		for _, sp := range starts {
			for _, others := range []uint64{0, 1} {
				for _, committed := range []uint64{14, 16} {
					name := fmt.Sprintf("%s/%s/others=%d/committed=%d", SlotStateName(state), sp.name, others, committed)
					want := state == slotInUse && sp.start < 32 && others == 0 && committed < 16
					t.Run(name, func(t *testing.T) {
						var sealed []Sealed
						w := slotArena(t, &sealed)
						w.setSlot(0, state, sp.start, committed, 32, 1+others)
						if got := w.reclaimStuck(0, 32); got != want || len(sealed) != btoi(got) {
							t.Errorf("reclaimStuck = %v with %d OnSeal calls, want %v", got, len(sealed), want)
						}
						c := slotArena(t, nil)
						c.setSlot(0, state, sp.start, committed, sp.index, others)
						s, got := c.TakeStuck(0)
						if got != want {
							t.Errorf("TakeStuck = %v, want %v", got, want)
						}
						wantW, wantC := state, state
						if want {
							wantW, wantC = slotPending, slotDraining
							for _, v := range []Sealed{sealed[0], s} {
								if v.Start != 0 || v.Seq != 0 || v.Committed != committed || len(v.Words) != 16 || v.Partial {
									t.Errorf("view: start %d, seq %d, %d/%d committed, partial %v", v.Start, v.Seq, v.Committed, len(v.Words), v.Partial)
								}
							}
						}
						if w.SlotState(0) != wantW || c.SlotState(0) != wantC {
							t.Errorf("slot left %s by the writer and %s by the consumer, want %s and %s",
								SlotStateName(w.SlotState(0)), SlotStateName(c.SlotState(0)),
								SlotStateName(wantW), SlotStateName(wantC))
						}
						for _, a := range []*Arena{w, c} {
							if st := a.Stats(); st.Seals != uint64(btoi(want)) || st.StuckSeals != st.Seals {
								t.Errorf("counted %d seals, %d stuck, want %d", st.Seals, st.StuckSeals, btoi(want))
							}
						}
					})
				}
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestStuckSealRace: a writer wrapping onto a stuck slot and a polling
// consumer go for it at once, and exactly one of them seals it. The
// writer is in flight around its reclaim, as inside a logging call, so the
// consumer can seal only before the writer's in-flight add; the state CAS
// decides the rest.
func TestStuckSealRace(t *testing.T) {
	var byWriter, byConsumer int
	for round := 0; round < 200; round++ {
		var sealed []Sealed
		a := slotArena(t, &sealed)
		a.setSlot(0, slotInUse, 0, 14, 32, 0)
		var wg sync.WaitGroup
		var w, c bool
		start := make(chan struct{})
		writer := func() {
			defer wg.Done()
			<-start
			atomic.AddUint64(a.inflight, 1)
			w = a.reclaimStuck(0, 32)
			atomic.AddUint64(a.inflight, ^uint64(0))
		}
		consumer := func() {
			defer wg.Done()
			<-start
			for !c && a.SlotState(0) == slotInUse {
				_, c = a.TakeStuck(0)
				runtime.Gosched()
			}
		}
		wg.Add(2)
		if round%2 == 0 { // either side may be the one scheduled first
			go writer()
			go consumer()
		} else {
			go consumer()
			go writer()
		}
		close(start)
		wg.Wait()
		if w == c {
			t.Fatalf("round %d: writer sealed %v, consumer sealed %v; want exactly one", round, w, c)
		}
		if st := a.Stats(); st.Seals != 1 || st.StuckSeals != 1 || len(sealed) != btoi(w) {
			t.Fatalf("round %d: %d seals, %d stuck, %d OnSeal calls", round, st.Seals, st.StuckSeals, len(sealed))
		}
		byWriter += btoi(w)
		byConsumer += btoi(c)
	}
	t.Logf("writer sealed %d rounds, consumer %d", byWriter, byConsumer)
}
