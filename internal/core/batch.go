package core

import (
	"sync/atomic"

	"k42trace/internal/event"
)

// A Batch is a per-logger sub-allocator over one arena: a single
// reservation CAS claims many events' worth of words up front, and the
// batch then hands out event slots with plain arithmetic — no atomic
// operation per event. The contended read-modify-write that dominates the
// hot path is paid once per batch instead of once per event, which is
// what pushes per-event cost toward the memory-copy floor.
//
// The protocol invariants survive unchanged because a batch is, from the
// arena's point of view, one long in-flight logging call:
//
//   - The whole extent is reserved by Arena.reserve, so it never crosses
//     a buffer (alignment) boundary and random access stays intact.
//   - The opener stays registered in-flight from OpenBatch to Close, so
//     quiescence waits (Quiesce, ApplyMask, the shm daemon's reap guard)
//     see the batch exactly as they would see a slow single event.
//   - Close pads the unused tail with filler events and then commits the
//     entire extent with one commit call, so word conservation holds: a
//     buffer's commit count still reaches its size exactly when every
//     reserved word was either logged or accounted as filler. If the
//     batch's words complete the buffer, that commit seals it — a batch
//     can straddle a seal — and a batch abandoned by a killed writer
//     leaves the familiar short count for stuck-buffer reclamation, with
//     the unwritten remainder decoding as a clean zero-filled hole.
//
// Every event in a batch carries the timestamp read when the batch was
// opened. Re-reading the clock per append would break per-CPU stream
// monotonicity: a concurrent logger that reserves *after* the batch
// (higher positions) could obtain an *earlier* stamp than a late append.
// Freezing the open stamp keeps position order and timestamp order
// aligned, at the cost of intra-batch timestamps being identical — the
// same trade the paper makes for events sharing a timer tick.
//
// A Batch is a single-logger object: it must not be used from two
// goroutines at once (the per-P fast path serializes access with a slot
// claim). Batches should be short-lived — an open batch defers Quiesce,
// ApplyMask, Stop and (for shm clients) Detach until it closes.
type Batch struct {
	a      *Arena
	base   uint64 // free-running index of the first reserved word
	next   uint64 // free-running index of the next unwritten word
	end    uint64 // free-running index one past the reservation
	ts     uint64 // open timestamp, shared by every event in the batch
	events uint64 // events appended since open
	open   bool
}

// OpenBatch reserves words trace-memory words into b with one CAS,
// closing any batch b already holds. The major gates the reservation the
// way an event's major gates a logging call: if its mask bit is off the
// batch does not open. Appends are still gated per-event, so one batch
// can carry mixed majors. Returns false with nothing reserved if tracing
// is off for the major, the reservation was dropped (full ring under the
// Drop policy, shutdown), or words cannot fit a buffer.
func (c CPU) OpenBatch(b *Batch, major event.Major, words int) bool {
	a := c.a
	if b.open {
		b.Close()
	}
	bit := major.Bit()
	if a.mask.Load()&bit == 0 {
		return false
	}
	if words <= 0 || uint64(words) > a.bufWords-anchorWords {
		a.statAdd(ctlStatTooLarge, 1)
		return false
	}
	// Same prologue as begin(): the in-flight registration must precede
	// the mask re-check so a concurrent Quiesce cannot miss us.
	atomic.AddUint64(a.inflight, 1)
	if a.mask.Load()&bit == 0 {
		atomic.AddUint64(a.inflight, ^uint64(0))
		return false
	}
	idx, ts, ok := a.reserve(bit, words)
	if !ok {
		atomic.AddUint64(a.inflight, ^uint64(0))
		return false
	}
	*b = Batch{a: a, base: idx, next: idx, end: idx + uint64(words), ts: ts, open: true}
	a.statAdd(ctlStatBatchOpens, 1)
	return true
}

// Close fills the batch's unused tail with filler events, commits the
// whole extent in one commit call (sealing the buffer if this completes
// it), flushes the batch's event counters into the shared statistics, and
// deregisters the opener from the in-flight count. Closing a closed batch
// is a no-op, so deferring Close is always safe.
func (b *Batch) Close() {
	if !b.open {
		return
	}
	a := b.a
	if tail := b.end - b.next; tail > 0 {
		a.writeFiller(b.next, tail, uint32(b.ts))
	}
	a.commit(b.base, b.end-b.base)
	if b.events > 0 {
		a.statAdd(ctlStatEvents, b.events)
		a.statAdd(ctlStatWords, b.next-b.base)
		a.statAdd(ctlStatFastHits, b.events)
	}
	b.open = false
	a.end()
}

// remaining returns the unwritten words left in the reservation.
func (b *Batch) remaining() int {
	if !b.open {
		return 0
	}
	return int(b.end - b.next)
}

// slot claims length words of the reservation, returning the buffer
// position of the first. The capacity check is the entire allocation —
// this is the plain-arithmetic path the batch exists for.
func (b *Batch) slot(length uint64) (pos uint64, ok bool) {
	if !b.open || b.next+length > b.end {
		return 0, false
	}
	pos = b.next & b.a.indexMask
	b.next += length
	b.events++
	return pos, true
}

// Log0 appends an event with no payload. False means the batch is closed,
// full, or the major is masked off: fall back to Close + OpenBatch or to
// the handle's own Log0.
func (b *Batch) Log0(major event.Major, minor uint16) bool {
	return b.logN(major, minor, 1, 0, 0, 0, 0)
}

// Log1 appends an event with one 64-bit payload word.
func (b *Batch) Log1(major event.Major, minor uint16, d0 uint64) bool {
	return b.logN(major, minor, 2, d0, 0, 0, 0)
}

// Log2 appends an event with two 64-bit payload words.
func (b *Batch) Log2(major event.Major, minor uint16, d0, d1 uint64) bool {
	return b.logN(major, minor, 3, d0, d1, 0, 0)
}

// Log3 appends an event with three 64-bit payload words.
func (b *Batch) Log3(major event.Major, minor uint16, d0, d1, d2 uint64) bool {
	return b.logN(major, minor, 4, d0, d1, d2, 0)
}

// Log4 appends an event with four 64-bit payload words.
func (b *Batch) Log4(major event.Major, minor uint16, d0, d1, d2, d3 uint64) bool {
	return b.logN(major, minor, 5, d0, d1, d2, d3)
}

// logN is the body of Log0..Log4, the batch's Arena.logN: an n-word event
// stamped with the open timestamp.
func (b *Batch) logN(major event.Major, minor uint16, n int, d0, d1, d2, d3 uint64) bool {
	if !b.open || b.a.mask.Load()&major.Bit() == 0 {
		return false
	}
	p, ok := b.slot(uint64(n))
	if !ok {
		return false
	}
	putN(b.a.buf, p, n, uint64(event.MakeHeader(uint32(b.ts), n, major, minor)), d0, d1, d2, d3)
	return true
}

// logWords appends an event whose payload is the given word slice.
func (b *Batch) logWords(major event.Major, minor uint16, data []uint64) bool {
	if !b.open || b.a.mask.Load()&major.Bit() == 0 {
		return false
	}
	length := uint64(1 + len(data))
	if length > event.MaxWords {
		b.a.statAdd(ctlStatTooLarge, 1)
		return false
	}
	p, ok := b.slot(length)
	if !ok {
		return false
	}
	b.a.buf[p] = uint64(event.MakeHeader(uint32(b.ts), int(length), major, minor))
	copy(b.a.buf[p+1:p+length], data)
	return true
}
