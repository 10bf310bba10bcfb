package core

import (
	"sync/atomic"

	"k42trace/internal/event"
)

// slowResult is the outcome of one slow-path attempt.
type slowResult int

const (
	slowWon     slowResult = iota // space reserved; caller may log
	slowRetry                     // lost a race or waiting; re-run the loop
	slowDropped                   // event dropped (Drop policy or shutdown)
)

// reserve implements traceReserve from Figure 2 of the paper. It reserves
// length words (header included) in this arena's trace memory and returns
// the free-running start index and the timestamp to put in the header.
//
// The timestamp is (re-)read inside the retry loop, immediately before the
// compare-and-swap: "it is important to guarantee monotonically increasing
// timestamps [so] processes must re-determine the timestamp during each
// attempt to atomically increment the index." A successful CAS therefore
// orders the timestamp read after the previous winner's CAS, making each
// CPU's stream monotone — across goroutines and, when the arena words are
// a shared mapping, across processes.
func (a *Arena) reserve(bit uint64, length int) (idx uint64, ts uint64, ok bool) {
	bw := a.bufWords
	if a.staleTS {
		// Ablation: the bug the paper warns against — one read before the
		// loop. A process that loses the CAS and retries keeps its stale
		// timestamp, so a competitor can take an earlier slot with a later
		// stamp (or vice versa), breaking per-stream monotonicity.
		ts = a.clk.Now(a.cpu)
	}
	for {
		old := a.Index()
		off := old & (bw - 1)
		if off == 0 || off+uint64(length) > bw {
			i, s, res := a.reserveSlow(bit, old, length)
			switch res {
			case slowWon:
				return i, s, true
			case slowDropped:
				return 0, 0, false
			}
			continue // slowRetry
		}
		if !a.staleTS {
			ts = a.clk.Now(a.cpu)
		}
		if atomic.CompareAndSwapUint64(&a.ctl[ctlIndex], old, old+uint64(length)) {
			if (old+uint64(length))&(bw-1) == 0 {
				a.statAdd(ctlStatExactFit, 1)
			}
			return old, ts, true
		}
		a.statAdd(ctlStatRetries, 1)
	}
}

// reserveSlow handles reservations that start a new buffer: when the
// reservation would cross the alignment boundary (a filler event pads the
// remainder) or when the index sits exactly on a boundary (a fresh buffer
// is being entered). The winner of the CAS becomes the transition owner:
// it writes the filler, claims the next buffer slot, logs the clock-anchor
// event that begins every buffer, and returns the space for the caller's
// own event just after the anchor.
func (a *Arena) reserveSlow(bit uint64, old uint64, length int) (uint64, uint64, slowResult) {
	bw := a.bufWords
	off := old & (bw - 1)
	boundary := old
	if off != 0 {
		boundary = old + bw - off
	}
	fill := boundary - old
	target := boundary + anchorWords + uint64(length)

	newSlot := int((boundary / bw) & (a.numBufs - 1))
	if a.stream && a.SlotState(newSlot) != slotFree {
		// The consumer has not released this buffer yet.
		if a.onFull == nil { // Drop policy
			a.statAdd(ctlStatDropped, 1)
			return 0, 0, slowDropped
		}
		if a.mask.Load()&bit == 0 {
			// Tracing was disabled (or the tracer stopped) while we
			// waited; bail out rather than blocking shutdown.
			a.statAdd(ctlStatDropped, 1)
			return 0, 0, slowDropped
		}
		if a.reclaimStuck(newSlot, boundary) {
			return 0, 0, slowRetry // slot sealed anomalous; try again
		}
		a.statAdd(ctlStatBlockWaits, 1)
		if !a.onFull() {
			a.statAdd(ctlStatDropped, 1)
			return 0, 0, slowDropped
		}
		return 0, 0, slowRetry
	}

	ts := a.clk.Now(a.cpu)
	if !atomic.CompareAndSwapUint64(&a.ctl[ctlIndex], old, target) {
		a.statAdd(ctlStatRetries, 1)
		return 0, 0, slowRetry
	}

	// We are the unique transition winner for this boundary.
	atomic.StoreUint64(a.slotWord(newSlot, slotWState), slotInUse)
	atomic.StoreUint64(a.slotWord(newSlot, slotWStart), boundary)
	if !a.stream {
		// Flight recorder: recycle the slot's accounting for the new
		// generation. (In Stream mode the consumer's Release resets it
		// while the slot is quiescent.)
		atomic.StoreUint64(a.slotWord(newSlot, slotWCommitted), 0)
	}
	if fill > 0 {
		a.writeFiller(old, fill, uint32(ts))
		a.commit(old, fill)
	}
	pos := boundary & a.indexMask
	a.buf[pos] = uint64(event.MakeHeader(uint32(ts), anchorWords,
		event.MajorControl, event.CtrlClockAnchor))
	a.buf[pos+1] = ts
	a.statAdd(ctlStatAnchors, 1)
	a.commit(boundary, anchorWords)
	if target&(bw-1) == 0 {
		a.statAdd(ctlStatExactFit, 1)
	}
	return boundary + anchorWords, ts, slowWon
}

// reclaimStuck seals a stuck buffer: one whose commit count stalled short
// of the buffer size because a writer reserved space and was then killed
// before logging — §3.1's failure mode. The normal seal happens at the
// buffer's last commit, which for such a buffer never arrives; without
// reclamation the slot would never reach the consumer and the ring would
// wedge as soon as writers wrapped back around to it. Real write-out
// (K42's trace daemon) ships buffers on buffer-switch regardless and
// "reports an anomaly if they do not match"; this is that write-out,
// deferred to the moment a writer actually needs the slot back.
//
// Reclaiming is only race-free when no other logger on this arena is in
// flight: with the caller alone (InflightTotal == 1, counting itself) the
// stuck buffer's commit count is final; sealStuck holds that guard and the
// state CAS it shares with a polling consumer's TakeStuck.
func (a *Arena) reclaimStuck(slot int, boundary uint64) bool {
	s, ok := a.sealStuck(slot, boundary, 1, slotPending)
	if ok && a.onSeal != nil {
		a.onSeal(s)
	}
	return ok
}

// writeFiller pads [from, from+n) with filler events: bare headers whose
// length covers the padded words ("a filler event is just a header with a
// length equal to the remainder of the current buffer; no data need be
// logged"). Remainders larger than the maximum event length chain multiple
// fillers.
func (a *Arena) writeFiller(from, n uint64, ts32 uint32) {
	mask := a.indexMask
	a.statAdd(ctlStatFillerWords, n)
	for n > 0 {
		l := n
		if l > event.MaxWords {
			l = event.MaxWords
		}
		a.buf[from&mask] = uint64(event.MakeHeader(ts32, int(l),
			event.MajorControl, event.CtrlFiller))
		a.statAdd(ctlStatFillerEvents, 1)
		from += l
		n -= l
	}
}

// commit is traceCommit: it adds words to the per-buffer count of data
// actually logged. When the count reaches the buffer size the buffer is
// complete; in Stream mode the committer that completes it seals it and
// hands it to the consumer (or, with no OnSeal hook, leaves it Pending for
// a polling consumer). A buffer whose count never reaches its size had a
// writer that reserved space but never finished logging — the anomaly the
// per-buffer counts exist to detect.
func (a *Arena) commit(idx uint64, words uint64) {
	slot := int((idx / a.bufWords) & (a.numBufs - 1))
	c := atomic.AddUint64(a.slotWord(slot, slotWCommitted), words)
	if c == a.bufWords && a.stream {
		atomic.StoreUint64(a.slotWord(slot, slotWState), slotPending)
		a.statAdd(ctlStatSeals, 1)
		if a.onSeal != nil {
			a.onSeal(a.view(a.SlotStart(slot), a.bufWords, a.bufWords, false))
		}
	}
}

// begin is the common prologue of every logging call: it registers the
// logger as in-flight (so flight-recorder dumps can drain to quiescence),
// re-checks the mask, and reserves space.
//
// The mask is loaded twice per enabled event — once in the entry point,
// once here — and both loads are necessary; neither is the redundancy it
// looks like. The entry-point check keeps the *disabled* path to a single
// load+branch (the paper's "single comparison against a trace mask"
// cost); doing the inflight add first would put two atomic RMWs on every
// disabled trace point. The re-load here, *after* the inflight add, closes
// the race with Quiesce: the drain observes inflight==0 only after our
// add, and mask.Swap(0) happened before the drain began, so any logger
// that slipped past the entry check while tracing was being disabled is
// guaranteed to see the zero mask here and back out. Dropping this
// re-check would let such a logger write into buffers the dumper believes
// are quiescent. (What *was* redundant here — a per-call length check
// that is statically dead for the fixed-arity Log0..Log4, whose lengths
// of 1..5 words always fit the BufWords >= 16 / MaxWords = 1023 floors —
// now lives only in the variable-length entry points.)
func (a *Arena) begin(bit uint64, length int) (idx uint64, ts uint64, ok bool) {
	atomic.AddUint64(a.inflight, 1)
	if a.mask.Load()&bit == 0 {
		atomic.AddUint64(a.inflight, ^uint64(0))
		return 0, 0, false
	}
	idx, ts, ok = a.reserve(bit, length)
	if !ok {
		atomic.AddUint64(a.inflight, ^uint64(0))
	}
	return idx, ts, ok
}

// fits reports whether an event of the given total length (header
// included) can ever be logged: it must leave room for the buffer's
// leading clock anchor and be encodable in the header's length field.
// Callers with a constant length <= 5 (Log0..Log4) need not ask.
func (a *Arena) fits(length int) bool {
	if uint64(length) > a.bufWords-anchorWords || length > event.MaxWords {
		a.statAdd(ctlStatTooLarge, 1)
		return false
	}
	return true
}

// end is the epilogue: the logger is no longer in flight.
func (a *Arena) end() { atomic.AddUint64(a.inflight, ^uint64(0)) }

// --- The logging handle -------------------------------------------------------

// CPU is the logging handle bound to one processor slot's arena: the
// user-mapped per-processor control structure of the paper, through which
// applications and kernel code log directly, with no system call. The same
// handle serves a Tracer's private buffers and a shared segment's mapped
// ones. It carries only the producer side of the protocol: a logger cannot
// release, seal or flush a buffer — that stays on the Arena, for its
// consumer. Handles are cheap values, obtained once and reused; goroutines
// sharing one are safe but contend on its CAS.
type CPU struct {
	a *Arena
}

// Handle returns the logging handle over a.
func (a *Arena) Handle() CPU { return CPU{a: a} }

// Enabled reports whether events of the major class are currently logged.
func (c CPU) Enabled(m event.Major) bool { return c.a.mask.Load()&m.Bit() != 0 }

// Log0..Log4 are the analogue of K42's per-major-ID macros: "events with a
// constant number of data words [are] logged efficiently, without the use
// of variable argument functions." Each is one call to logN with its event
// length a constant; LogWords is the generic function used for
// non-constant-length data.

// Log0 logs an event with no payload. It reports whether the event was
// logged (false: tracing disabled for the major, event dropped, or too
// large).
func (c CPU) Log0(major event.Major, minor uint16) bool {
	return c.a.logN(major, minor, 1, 0, 0, 0, 0)
}

// Log1 logs an event with one 64-bit payload word.
func (c CPU) Log1(major event.Major, minor uint16, d0 uint64) bool {
	return c.a.logN(major, minor, 2, d0, 0, 0, 0)
}

// Log2 logs an event with two 64-bit payload words.
func (c CPU) Log2(major event.Major, minor uint16, d0, d1 uint64) bool {
	return c.a.logN(major, minor, 3, d0, d1, 0, 0)
}

// Log3 logs an event with three 64-bit payload words.
func (c CPU) Log3(major event.Major, minor uint16, d0, d1, d2 uint64) bool {
	return c.a.logN(major, minor, 4, d0, d1, d2, 0)
}

// Log4 logs an event with four 64-bit payload words.
func (c CPU) Log4(major event.Major, minor uint16, d0, d1, d2, d3 uint64) bool {
	return c.a.logN(major, minor, 5, d0, d1, d2, d3)
}

// logN is the body of Log0..Log4: an n-word event (1 <= n <= 5, header
// included) whose payload is the first n-1 of d0..d3.
func (a *Arena) logN(major event.Major, minor uint16, n int, d0, d1, d2, d3 uint64) bool {
	bit := major.Bit()
	if a.mask.Load()&bit == 0 {
		return false
	}
	idx, ts, ok := a.begin(bit, n)
	if !ok {
		return false
	}
	putN(a.buf, idx&a.indexMask, n, uint64(event.MakeHeader(uint32(ts), n, major, minor)), d0, d1, d2, d3)
	a.commit(idx, uint64(n))
	a.statAdd(ctlStatEvents, 1)
	a.statAdd(ctlStatWords, uint64(n))
	a.end()
	return true
}

// putN stores an n-word event at buf[p:p+n]: the header h, then the first
// n-1 of d0..d3.
func putN(buf []uint64, p uint64, n int, h, d0, d1, d2, d3 uint64) {
	w := buf[p : p+uint64(n)]
	w[0] = h
	if n > 1 {
		w[1] = d0
	}
	if n > 2 {
		w[2] = d1
	}
	if n > 3 {
		w[3] = d2
	}
	if n > 4 {
		w[4] = d3
	}
}

// LogWords logs an event whose payload is the given word slice. Use
// event.Pack to build payloads containing packed sub-word fields or
// strings.
func (c CPU) LogWords(major event.Major, minor uint16, data []uint64) bool {
	a := c.a
	if a.mask.Load()&major.Bit() == 0 {
		return false
	}
	length := 1 + len(data)
	if !a.fits(length) {
		return false
	}
	idx, ts, ok := a.begin(major.Bit(), length)
	if !ok {
		return false
	}
	p := idx & a.indexMask
	a.buf[p] = uint64(event.MakeHeader(uint32(ts), length, major, minor))
	copy(a.buf[p+1:p+uint64(length)], data)
	a.commit(idx, uint64(length))
	a.statAdd(ctlStatEvents, 1)
	a.statAdd(ctlStatWords, uint64(length))
	a.end()
	return true
}

// ReserveOnly reserves space for an event but never writes or commits it.
// It exists solely to inject the paper's failure mode — "a process's
// execution may be interrupted after it has reserved space to log an
// event, but before it actually performs the log" (killed mid-log) — so
// tests can verify that commit-count anomaly detection catches it.
func (c CPU) ReserveOnly(major event.Major, minor uint16, payloadWords int) bool {
	_, ok := c.ReserveHang(major, minor, payloadWords)
	if ok {
		c.a.end()
	}
	return ok
}

// ReserveHang reserves space for an event and returns while still "in
// flight": the space is never written or committed and the in-flight
// count stays raised — exactly the state a process SIGKILLed between
// reserve and commit leaves behind in a shared mapping. Its one caller
// outside tests is shmlog -hang, a client that calls it and is then
// killed; the daemon's pid-liveness reap writes the dead contribution off.
// It returns the total words reserved (header + payload, plus nothing for
// any filler/anchor the reservation's transition committed on its own).
// A negative payload reserves nothing.
func (c CPU) ReserveHang(major event.Major, minor uint16, payloadWords int) (int, bool) {
	a := c.a
	bit := major.Bit()
	if payloadWords < 0 || a.mask.Load()&bit == 0 {
		return 0, false
	}
	length := 1 + payloadWords
	if !a.fits(length) {
		return 0, false
	}
	_, _, ok := a.begin(bit, length)
	if !ok {
		return 0, false
	}
	return length, true
}
