// The per-P sharded fast path: each runtime processor (P) keeps a private
// open Batch, so an uncontended PLog call appends with plain arithmetic —
// no reservation CAS, no in-flight RMW, no clock read. procPin gives the
// calling goroutine momentary CPU-slot affinity, the analogue of the
// paper's "memory bound to a specific processor": as long as a P stays
// the sole logger of its slot, its events go through the amortized path
// and the retry loop is never entered.
package core

import (
	"runtime"
	"sync/atomic"
	"time"
	_ "unsafe" // for go:linkname

	"k42trace/internal/event"
)

// procPin pins the calling goroutine to its current P and returns the
// P's id; procUnpin releases it. Pinning disables preemption, so the
// pinned window below is a handful of plain stores — never a blocking
// call. These are the same runtime hooks sync.Pool uses for its per-P
// shards; both carry push linknames in the runtime.
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// Per-P slot states. A slot is claimed with a CAS so a migrated goroutine
// that lands on an already-busy P falls back to the shared path instead
// of corrupting the batch; the flusher claims every slot (pPaused) to
// close parked batches before quiescence waits.
const (
	pFree uint64 = iota
	pHeld
	pPaused
)

// pSlot is one P's batch shard. The leading pad keeps neighbouring slots
// off each other's cache lines — the whole point is that P-local logging
// touches no shared line.
type pSlot struct {
	_     [8]uint64
	state atomic.Uint64
	b     Batch
}

// initFastPath sizes the per-P shard array. Shards map onto CPU slots by
// p % CPUs, so any GOMAXPROCS works with any configured CPU count.
func (t *Tracer) initFastPath(batchWords int) {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	t.pslots = make([]pSlot, n)
	t.batchWords = batchWords
}

// pArena returns the arena the per-P shard p logs into.
func (t *Tracer) pArena(p int) *Arena { return t.cpus[p%len(t.cpus)] }

// PLog1 logs an event with one 64-bit payload word through the per-P
// fast path. Like Log1 it reports whether the event was logged; unlike
// Log1 the caller does not pick a CPU slot — the current P does.
func (t *Tracer) PLog1(major event.Major, minor uint16, d0 uint64) bool {
	return t.plogN(major, minor, 2, d0, 0, 0, 0)
}

// PLog2 logs an event with two 64-bit payload words through the per-P
// fast path.
func (t *Tracer) PLog2(major event.Major, minor uint16, d0, d1 uint64) bool {
	return t.plogN(major, minor, 3, d0, d1, 0, 0)
}

// PLog3 logs an event with three 64-bit payload words through the per-P
// fast path.
func (t *Tracer) PLog3(major event.Major, minor uint16, d0, d1, d2 uint64) bool {
	return t.plogN(major, minor, 4, d0, d1, d2, 0)
}

// PLog4 logs an event with four 64-bit payload words through the per-P
// fast path.
func (t *Tracer) PLog4(major event.Major, minor uint16, d0, d1, d2, d3 uint64) bool {
	return t.plogN(major, minor, 5, d0, d1, d2, d3)
}

// plogN is the body of PLog1..PLog4: an n-word event, appended to the
// current P's parked batch when its shard is free, else logged on the
// shard's arena.
func (t *Tracer) plogN(major event.Major, minor uint16, n int, d0, d1, d2, d3 uint64) bool {
	if t.mask.Load()&major.Bit() == 0 {
		return false
	}
	p := procPin()
	if t.batchWords > 0 {
		s := &t.pslots[p%len(t.pslots)]
		if s.state.CompareAndSwap(pFree, pHeld) {
			if s.b.logN(major, minor, n, d0, d1, d2, d3) {
				s.state.Store(pFree)
				procUnpin()
				return true
			}
			procUnpin()
			return t.pSlow(s, p, major, minor, n, d0, d1, d2, d3)
		}
	}
	procUnpin()
	return t.pArena(p).logN(major, minor, n, d0, d1, d2, d3)
}

// pSlow is the miss path: the claimed shard's batch was closed, full, or
// masked for this major. The caller has unpinned but still holds the
// slot claim, so the batch is exclusively ours while we cycle it. Cycling
// may block (full ring under the Block policy), which is why it runs
// unpinned. If the batch will not open (masked, dropped, shutdown) or the
// event is larger than the batch, the shared reservation path decides.
func (t *Tracer) pSlow(s *pSlot, p int, major event.Major, minor uint16, n int, d0, d1, d2, d3 uint64) bool {
	a := t.pArena(p)
	s.b.Close()
	ok := a.Handle().OpenBatch(&s.b, major, t.batchWords) && s.b.logN(major, minor, n, d0, d1, d2, d3)
	s.state.Store(pFree)
	return ok || a.logN(major, minor, n, d0, d1, d2, d3)
}

// closeParkedBatches closes the batch of every shard that nobody is logging
// through at this instant, without waiting for the ones that are claimed:
// their holders close or refill them on their own. The owner of a closed
// batch reopens it on its next PLog, as after any miss.
func (t *Tracer) closeParkedBatches() {
	if t.batchWords == 0 {
		return // the fast path is off: no shard ever holds a batch
	}
	for i := range t.pslots {
		s := &t.pslots[i]
		if s.state.CompareAndSwap(pFree, pHeld) {
			s.b.Close()
			s.state.Store(pFree)
		}
	}
}

// pauseBatches claims every per-P shard and closes its parked batch. A
// parked batch holds its opener's in-flight registration, so every
// quiescence wait (Quiesce, ApplyMask, Stop) must run this first or it
// would wait forever for a commit that arrives only on the next PLog
// miss. The claims are held until resumeBatches so the drain that follows
// cannot race a new batch opening; PLogs meanwhile fall back to the
// shared path (and fail its mask re-check if tracing is being disabled).
// Paired pause/resume calls are serialized by pauseMu.
func (t *Tracer) pauseBatches() {
	t.pauseMu.Lock()
	for i := range t.pslots {
		s := &t.pslots[i]
		// A holder keeps the claim only across one append or one batch
		// cycle; spin briefly, then back off to real sleeps (GOMAXPROCS=1
		// needs the holder to get the processor back).
		for spins := 0; !s.state.CompareAndSwap(pFree, pPaused); spins++ {
			if spins < 64 {
				runtime.Gosched()
			} else {
				time.Sleep(time.Microsecond)
			}
		}
		s.b.Close()
	}
}

// resumeBatches releases the shard claims taken by pauseBatches.
func (t *Tracer) resumeBatches() {
	for i := range t.pslots {
		t.pslots[i].state.Store(pFree)
	}
	t.pauseMu.Unlock()
}
