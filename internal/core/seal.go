package core

// Sealed is a completed buffer handed from the tracer to the Stream-mode
// consumer — the relayfs-style unit of transfer. Words aliases the live
// trace memory: the consumer must finish with it (write it out or copy it)
// and then call Release before writers can recycle the slot. All commits
// into the buffer happen-before the consumer receives the Sealed value, so
// reading Words is race-free.
type Sealed struct {
	// CPU is the processor the buffer belongs to; Seq is the buffer's
	// generation number on that CPU (monotonically increasing), and Start
	// is the free-running word index of the buffer's first word.
	CPU   int
	Seq   uint64
	Start uint64
	// Words is the buffer contents. For regular seals its length is the
	// configured BufWords; flush-time partials are shorter.
	Words []uint64
	// Committed is the per-buffer count of words actually logged. A
	// mismatch with len(Words) means some process reserved space but never
	// finished writing its event — the garble anomaly of §3.1.
	Committed uint64
	// Partial marks a buffer flushed before it filled (shutdown or an
	// explicit Flush).
	Partial bool
}

// Anomalous reports whether the commit count disagrees with the buffer
// size, i.e. the buffer may contain a garbled region.
func (s Sealed) Anomalous() bool { return s.Committed != uint64(len(s.Words)) }

// Sealed returns the channel on which Stream-mode buffers are delivered.
// The channel is closed by Stop after the final flush.
func (t *Tracer) Sealed() <-chan Sealed { return t.sealed }

// Release recycles a sealed buffer's slot so writers can reuse it. It must
// be called exactly once per regular Sealed value, after the consumer is
// done with Words. Releasing a Partial buffer is a no-op (partials are
// only produced at flush time, when the slot is not recycled).
func (t *Tracer) Release(s Sealed) {
	t.cpus[s.CPU].ReleaseSlot(s, t.cfg.ZeroFill)
}

// drain spins until no logger is in flight on any CPU. Callers must have
// disabled the mask bits in question first; the begin() re-check then
// guarantees no new writer can start, so drain terminates.
func (t *Tracer) drain() {
	for _, a := range t.cpus {
		a.WaitQuiescent()
	}
}

// Quiesce disables all tracing and waits for in-flight loggers to finish,
// leaving the buffers stable for direct inspection. It returns the mask
// that was in effect so callers can restore it.
func (t *Tracer) Quiesce() uint64 {
	old := t.mask.Swap(0)
	t.pauseBatches()
	t.drain()
	t.resumeBatches()
	return old
}

// Flush pushes every buffer that still holds unconsumed data onto the
// Sealed channel: the partially filled current buffer of each CPU, and any
// stuck buffer whose commit count never reached the buffer size (a killed
// writer — these arrive with Anomalous() true). Tracing must be quiescent
// (call Quiesce, or use Stop which does all of it).
func (t *Tracer) Flush() {
	if t.cfg.Mode != Stream {
		return
	}
	for _, a := range t.cpus {
		a.FlushSlots(func(s Sealed) { t.sealed <- s })
	}
}

// Stop disables tracing, waits for in-flight loggers, flushes remaining
// data, and closes the Sealed channel. It is idempotent. After Stop the
// tracer cannot be restarted (create a new one).
func (t *Tracer) Stop() {
	if t.stopped.Swap(true) {
		return
	}
	t.mask.Store(0)
	t.pauseBatches()
	t.drain()
	t.resumeBatches()
	t.Flush()
	close(t.sealed)
}
