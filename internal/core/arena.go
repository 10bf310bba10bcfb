package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"k42trace/internal/clock"
)

// An Arena is the reserve/seal protocol of Figure 2 run over an arbitrary
// word-addressable memory: one CPU slot's control words plus its buffer
// ring, with every mutation an atomic operation on a 64-bit word. The
// in-process Tracer builds its per-CPU arenas over ordinary Go slices; the
// shm subsystem builds them over an mmap'd segment shared between
// processes, which is exactly the paper's user-mapped buffer design —
// "the buffers are mapped into the address space of the application" —
// because nothing in the protocol below needs anything richer than
// word-sized atomics on shared memory.
//
// Control-region word layout (offsets within the Ctl slice):
//
//	word 0      free-running reservation index (words)
//	word 1      in-flight logger count for the default (local) context
//	words 2-7   reserved; pads index+inflight to their own cache line
//	words 8-21  statistics counters (see ctlStat* below)
//	words 22-23 reserved
//	words 24+   slot table, CtlSlotWords words per buffer:
//	            [state, start, committed, reserved]
//
// All cross-context coordination — reservation CAS, commit counts, slot
// state transitions, the trace mask, in-flight counts — goes through these
// words, so two processes mapping the same arena obey the same protocol as
// two goroutines sharing a Tracer.
const (
	ctlIndex    = 0
	ctlInflight = 1

	ctlStatEvents       = 8
	ctlStatWords        = 9
	ctlStatRetries      = 10
	ctlStatFillerEvents = 11
	ctlStatFillerWords  = 12
	ctlStatExactFit     = 13
	ctlStatDropped      = 14
	ctlStatTooLarge     = 15
	ctlStatSeals        = 16
	ctlStatAnchors      = 17
	ctlStatBlockWaits   = 18
	ctlStatStuckSeals   = 19
	ctlStatFastHits     = 20
	ctlStatBatchOpens   = 21

	ctlSlotBase = 24
	// CtlSlotWords is the stride of one buffer slot's control words.
	CtlSlotWords = 4

	slotWState     = 0
	slotWStart     = 1
	slotWCommitted = 2
)

// CtlWords returns the size in words of one CPU's control region for the
// given number of buffers.
func CtlWords(numBufs int) int { return ctlSlotBase + CtlSlotWords*numBufs }

// Slot states, stored in the slot's state word. A buffer slot cycles
// Free -> InUse -> Pending -> Free; Draining is a daemon-side claim state
// that makes "hand this sealed buffer to exactly one consumer" a CAS even
// when the consumer polls slot words instead of receiving channel sends.
const (
	slotFree     uint64 = iota // available for writers
	slotInUse                  // current generation being filled
	slotPending                // sealed, awaiting consumer pickup/Release
	slotDraining               // claimed by a polling consumer (shm daemon)
)

// Exported slot-state values, for consumers interpreting SlotState (the
// shm inspector shows live slot states without stopping producers).
const (
	SlotFree     = slotFree
	SlotInUse    = slotInUse
	SlotPending  = slotPending
	SlotDraining = slotDraining
)

// SlotStateName returns a short human-readable name for a slot state.
func SlotStateName(s uint64) string {
	switch s {
	case slotFree:
		return "free"
	case slotInUse:
		return "in-use"
	case slotPending:
		return "pending"
	case slotDraining:
		return "draining"
	}
	return fmt.Sprintf("?%d", s)
}

// ArenaConfig describes one CPU slot's arena. Ctl and Buf may be ordinary
// slices or word views of shared memory; every field the protocol mutates
// must be 8-byte aligned (Go slices and page-aligned mappings both are).
type ArenaConfig struct {
	// Ctl is the control region; it must hold at least CtlWords(NumBufs)
	// words and start zeroed (or hold valid prior protocol state).
	Ctl []uint64
	// Buf is the trace memory: NumBufs*BufWords words.
	Buf []uint64
	// Mask is the shared trace mask gating the 64 major classes. The
	// in-process Tracer points every CPU's arena at one Tracer-local word;
	// shm points it at the segment header's mask word.
	Mask *atomic.Uint64
	// Clock supplies timestamps.
	Clock clock.Source
	// CPU is the processor slot number stamped into Sealed values.
	CPU int
	// BufWords and NumBufs mirror Config: powers of two, >= 16 and >= 2.
	BufWords int
	NumBufs  int
	// Stream selects Stream-mode sealing (as opposed to flight-recorder
	// recycling) exactly as Config.Mode does.
	Stream bool
	// UnsafeStaleTimestamp is the ablation switch; see Config.
	UnsafeStaleTimestamp bool

	// Inflight, when non-nil, is the word that counts this context's
	// loggers between reserve and commit. Defaults to the arena's own
	// inflight control word. The shm client points it at the attaching
	// process's private cell of a per-(client,CPU) matrix, so a SIGKILLed
	// process's contribution can be identified and written off.
	Inflight *uint64
	// InflightTotal, when non-nil, returns the number of loggers in flight
	// across every context sharing the arena (for quiescence waits and the
	// stuck-buffer reclaim guard). Defaults to loading the arena's own
	// inflight word, which is correct when all loggers share it.
	InflightTotal func() uint64
	// OnSeal, when non-nil, is called with each buffer sealed by a commit,
	// stuck-slot reclaim, or flush. The in-process Tracer sends on its
	// Sealed channel here. When nil, sealing is the slotPending state
	// transition alone and a polling consumer picks the buffer up with
	// TakePending — the shm arrangement, where the producer process cannot
	// signal the daemon directly.
	OnSeal func(Sealed)
	// OnFull, when non-nil, is called when Stream-mode reservation finds
	// the next slot unreleased; it should wait briefly and report whether
	// to retry (false drops the event). When nil, such events are dropped
	// immediately (the Drop policy).
	OnFull func() bool
}

// Arena runs the lockless reserve/commit/seal protocol over one CPU slot's
// control words and buffer ring. Methods on Arena are safe for concurrent
// use by any number of goroutines — or processes, when the underlying
// words are a shared mapping. Producers log through its Handle; the
// exported methods on Arena itself are the consumer's side.
type Arena struct {
	ctl  []uint64
	buf  []uint64
	mask *atomic.Uint64

	inflight      *uint64
	inflightTotal func() uint64
	onSeal        func(Sealed)
	onFull        func() bool

	clk       clock.Source
	cpu       int
	bufWords  uint64
	numBufs   uint64
	indexMask uint64
	stream    bool
	staleTS   bool
}

// NewArena validates the configuration and returns an Arena over it.
func NewArena(c ArenaConfig) (*Arena, error) {
	if c.BufWords < 16 || bits.OnesCount(uint(c.BufWords)) != 1 {
		return nil, fmt.Errorf("core: arena BufWords must be a power of two >= 16, got %d", c.BufWords)
	}
	if c.NumBufs < 2 || bits.OnesCount(uint(c.NumBufs)) != 1 {
		return nil, fmt.Errorf("core: arena NumBufs must be a power of two >= 2, got %d", c.NumBufs)
	}
	if len(c.Ctl) < CtlWords(c.NumBufs) {
		return nil, fmt.Errorf("core: arena ctl region %d words, need %d", len(c.Ctl), CtlWords(c.NumBufs))
	}
	if len(c.Buf) != c.BufWords*c.NumBufs {
		return nil, fmt.Errorf("core: arena buf %d words, need %d", len(c.Buf), c.BufWords*c.NumBufs)
	}
	if c.Mask == nil {
		return nil, fmt.Errorf("core: arena needs a mask word")
	}
	if c.Clock == nil {
		return nil, fmt.Errorf("core: arena needs a clock")
	}
	a := &Arena{
		ctl:           c.Ctl,
		buf:           c.Buf,
		mask:          c.Mask,
		inflight:      c.Inflight,
		inflightTotal: c.InflightTotal,
		onSeal:        c.OnSeal,
		onFull:        c.OnFull,
		clk:           c.Clock,
		cpu:           c.CPU,
		bufWords:      uint64(c.BufWords),
		numBufs:       uint64(c.NumBufs),
		indexMask:     uint64(c.BufWords*c.NumBufs) - 1,
		stream:        c.Stream,
		staleTS:       c.UnsafeStaleTimestamp,
	}
	if a.inflight == nil {
		a.inflight = &a.ctl[ctlInflight]
	}
	return a, nil
}

// --- word accessors ---------------------------------------------------------

func (a *Arena) slotWord(slot, field int) *uint64 {
	return &a.ctl[ctlSlotBase+CtlSlotWords*slot+field]
}

func (a *Arena) statAdd(word int, n uint64) { atomic.AddUint64(&a.ctl[word], n) }

// Index returns the free-running reservation index in words.
func (a *Arena) Index() uint64 { return atomic.LoadUint64(&a.ctl[ctlIndex]) }

// SlotState returns the recycle state of buffer slot i.
func (a *Arena) SlotState(i int) uint64 { return atomic.LoadUint64(a.slotWord(i, slotWState)) }

// SlotStart returns the free-running start index of slot i's current
// generation.
func (a *Arena) SlotStart(i int) uint64 { return atomic.LoadUint64(a.slotWord(i, slotWStart)) }

// SlotCommitted returns slot i's commit count.
func (a *Arena) SlotCommitted(i int) uint64 {
	return atomic.LoadUint64(a.slotWord(i, slotWCommitted))
}

// NumBufs returns the number of buffers in the ring.
func (a *Arena) NumBufs() int { return int(a.numBufs) }

// InflightTotal returns the number of loggers currently between reserve
// and commit across every context sharing the arena.
func (a *Arena) InflightTotal() uint64 {
	if a.inflightTotal != nil {
		return a.inflightTotal()
	}
	return atomic.LoadUint64(&a.ctl[ctlInflight])
}

// Stats returns a snapshot of the arena's counters.
func (a *Arena) Stats() Stats {
	ld := func(w int) uint64 { return atomic.LoadUint64(&a.ctl[w]) }
	return Stats{
		Events:       ld(ctlStatEvents),
		Words:        ld(ctlStatWords),
		Retries:      ld(ctlStatRetries),
		FillerEvents: ld(ctlStatFillerEvents),
		FillerWords:  ld(ctlStatFillerWords),
		ExactFit:     ld(ctlStatExactFit),
		Dropped:      ld(ctlStatDropped),
		TooLarge:     ld(ctlStatTooLarge),
		Seals:        ld(ctlStatSeals),
		Anchors:      ld(ctlStatAnchors),
		BlockWaits:   ld(ctlStatBlockWaits),
		StuckSeals:   ld(ctlStatStuckSeals),
		FastHits:     ld(ctlStatFastHits),
		BatchOpens:   ld(ctlStatBatchOpens),
	}
}

// WaitQuiescent waits until no logger is in flight on the arena. See the
// Tracer's quiescence discussion: after a brief Gosched spin the wait
// backs off to real sleeps, so it cannot starve on GOMAXPROCS=1.
func (a *Arena) WaitQuiescent() {
	for spins := 0; a.InflightTotal() != 0; spins++ {
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Microsecond)
		}
	}
}

// --- consumer-side slot operations ------------------------------------------

// ReleaseSlot recycles a sealed buffer's slot so writers can reuse it,
// optionally zero-filling the buffer first (§3.1's mitigation: a later
// reservation that is never written then decodes as a clean hole, not as
// stale events). Must be called exactly once per non-partial Sealed value;
// partials are flush-time-only and their slot is not recycled.
func (a *Arena) ReleaseSlot(s Sealed, zero bool) {
	if s.Partial {
		return
	}
	slot := int((s.Start / a.bufWords) & (a.numBufs - 1))
	if zero {
		// The slot is quiescent between seal and release, so this is the
		// one race-free moment to scrub it.
		for i := range s.Words {
			s.Words[i] = 0
		}
	}
	a.freeSlot(slot)
}

// freeSlot hands a slot back to writers with its commit count zeroed.
func (a *Arena) freeSlot(slot int) {
	atomic.StoreUint64(a.slotWord(slot, slotWCommitted), 0)
	atomic.StoreUint64(a.slotWord(slot, slotWState), slotFree)
}

// view is the one place a generation's start index becomes a Sealed
// value: n words of the ring from start.
func (a *Arena) view(start, n, committed uint64, partial bool) Sealed {
	lo := start & a.indexMask
	return Sealed{
		CPU:       a.cpu,
		Seq:       start / a.bufWords,
		Start:     start,
		Words:     a.buf[lo : lo+n : lo+n],
		Committed: committed,
		Partial:   partial,
	}
}

// claimedView is view for a slot the caller has claimed, from the start
// word it read there. That word is client-writable in a shared segment, so
// a start that does not name one of this slot's generations is refused —
// unaligned, its words could run off the end of the ring; aligned on
// another slot, its release would free that one — and the generation is
// dropped: the slot goes back to Free and nothing is emitted.
func (a *Arena) claimedView(slot int, start, n, committed uint64, partial bool) (Sealed, bool) {
	if start&a.indexMask != uint64(slot)*a.bufWords {
		a.freeSlot(slot)
		return Sealed{}, false
	}
	return a.view(start, n, committed, partial), true
}

// TakePending claims a sealed buffer for a polling consumer: it moves the
// slot from Pending to Draining and returns the Sealed view. This is how
// the shm daemon discovers seals — producers in other processes cannot
// call OnSeal in the daemon's address space, so the Pending state itself
// is the handoff. The CAS guarantees exactly-once pickup. Returns false
// if the slot is not pending, or if its start word names none of its
// generations (the slot is then freed).
func (a *Arena) TakePending(slot int) (Sealed, bool) {
	if !atomic.CompareAndSwapUint64(a.slotWord(slot, slotWState), slotPending, slotDraining) {
		return Sealed{}, false
	}
	return a.claimedView(slot, a.SlotStart(slot), a.bufWords, a.SlotCommitted(slot), false)
}

// TakeStuck seals a stuck buffer from the consumer side: one whose
// generation is fully reserved (the index moved past its end) but whose
// commit count stalled short because a writer was killed between reserve
// and commit. It is the daemon-side analogue of the writer-side reclaim —
// K42's trace daemon "reports an anomaly if they do not match" — and is
// only race-free when InflightTotal is zero: dead reservations never
// commit, and any logger starting later reserves in the current
// generation, so the stuck buffer's count is final. Callers must be the
// arena's only polling consumer (the state CAS then cannot ABA through a
// concurrent Release).
func (a *Arena) TakeStuck(slot int) (Sealed, bool) {
	if a.SlotState(slot) != slotInUse {
		return Sealed{}, false
	}
	return a.sealStuck(slot, a.Index()&^(a.bufWords-1), 0, slotDraining)
}

// sealStuck is the one stuck seal, the writer-side reclaim's and
// TakeStuck's. The slot's generation is stuck when it began before limit
// (an aligned index), its count is short and no logger but the caller's
// self (1 for a writer inside a logging call, 0 for the consumer) is in
// flight. Reading that count before the start word is safe: a writer
// cannot claim an InUse slot until it is Free. The state CAS to `to` makes
// the seal unique against a late last commit and against the other side.
func (a *Arena) sealStuck(slot int, limit, self, to uint64) (Sealed, bool) {
	if a.InflightTotal() != self {
		return Sealed{}, false // a live logger may yet commit here
	}
	start := a.SlotStart(slot)
	if start >= limit {
		return Sealed{}, false // current generation; still filling
	}
	committed := a.SlotCommitted(slot)
	if committed >= a.bufWords {
		return Sealed{}, false // complete: its last commit seals it
	}
	if !atomic.CompareAndSwapUint64(a.slotWord(slot, slotWState), slotInUse, to) {
		return Sealed{}, false
	}
	s, ok := a.claimedView(slot, start, a.bufWords, committed, false)
	if ok {
		a.statAdd(ctlStatSeals, 1)
		a.statAdd(ctlStatStuckSeals, 1)
	}
	return s, ok
}

// FlushSlots seals every buffer still holding unconsumed data: the
// partially filled current buffer (emitted Partial) and any stuck buffer
// whose count stalled short (emitted with its short count, so
// Anomalous() reports it). The arena must be quiescent — mask bits off,
// InflightTotal zero — or the emitted views would race live writers.
// Already-pending slots are not emitted; they were handed off at seal
// time (channel consumers) or will be picked up by TakePending (polling
// consumers) before the flush. A slot whose start word names none of its
// generations is freed instead.
func (a *Arena) FlushSlots(emit func(Sealed)) {
	if !a.stream {
		return
	}
	idx := a.Index()
	if idx == 0 {
		return // never logged
	}
	off := idx & (a.bufWords - 1)
	curStart := idx - off
	for slot := 0; slot < int(a.numBufs); slot++ {
		if a.SlotState(slot) != slotInUse {
			continue
		}
		start := a.SlotStart(slot)
		n := a.bufWords
		if start == curStart {
			if off == 0 {
				continue // boundary-exact: sealed by its last commit
			}
			n = off
		}
		if s, ok := a.claimedView(slot, start, n, a.SlotCommitted(slot), n < a.bufWords); ok {
			atomic.StoreUint64(a.slotWord(slot, slotWState), slotPending)
			a.statAdd(ctlStatSeals, 1)
			emit(s)
		}
	}
}
