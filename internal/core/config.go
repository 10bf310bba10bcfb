// Package core implements the paper's primary contribution: lockless
// logging of variable-length trace events into per-processor buffers,
// with random access to the event stream preserved by never letting an
// event cross a buffer (alignment) boundary.
//
// The reservation algorithm is the one in Figure 2 of the paper: a process
// reserves space by atomically advancing the per-CPU buffer index with a
// compare-and-swap, re-reading the timestamp on every retry so that
// timestamps within a CPU's stream are monotonically non-decreasing. The
// winner of the CAS owns the reserved words and fills them in with plain
// stores; a per-buffer commit count detects events that were reserved but
// never written (a process killed or blocked mid-log).
package core

import (
	"fmt"
	"math/bits"

	"k42trace/internal/clock"
)

// Mode selects what happens to buffers as they fill.
type Mode int

const (
	// FlightRecorder treats each CPU's trace memory as a circular buffer:
	// new events overwrite the oldest ones, and the most recent activity is
	// always available to a debugger via Dump. This is the paper's
	// correctness-debugging configuration.
	FlightRecorder Mode = iota
	// Stream seals each buffer as it fills and hands it to a consumer
	// (disk writer, network relay) via the Sealed channel. The consumer
	// must Release each buffer to recycle it.
	Stream
)

func (m Mode) String() string {
	switch m {
	case FlightRecorder:
		return "flight-recorder"
	case Stream:
		return "stream"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// OnFull selects the writer-side policy in Stream mode when the next
// buffer has not yet been released by the consumer.
type OnFull int

const (
	// Block makes the logging call wait (yielding the processor) until the
	// consumer releases the buffer. Lossless; the default.
	Block OnFull = iota
	// Drop discards the event and counts it in Stats.Dropped. Lossy but
	// non-blocking, for consumers that may stall.
	Drop
)

func (o OnFull) String() string {
	switch o {
	case Block:
		return "block"
	case Drop:
		return "drop"
	}
	return fmt.Sprintf("OnFull(%d)", int(o))
}

// Config describes a Tracer. The zero value is not usable; call New.
type Config struct {
	// CPUs is the number of processor slots; each gets an independent set
	// of buffers and control structures so logging on different CPUs never
	// shares cache lines. Must be >= 1.
	CPUs int
	// BufWords is the size of one buffer in 64-bit words — the paper's
	// medium-scale alignment boundary (e.g. 128 KiB = 16384 words). Must be
	// a power of two >= 16. Events never cross a BufWords boundary.
	BufWords int
	// NumBufs is the number of buffers per CPU. Must be a power of two
	// >= 2.
	NumBufs int
	// Clock supplies timestamps. Defaults to a shared synchronized
	// nanosecond clock (clock.NewSync()).
	Clock clock.Source
	// Mode selects FlightRecorder (default) or Stream.
	Mode Mode
	// OnFull selects the Stream-mode full-buffer policy (default Block).
	OnFull OnFull
	// ZeroFill zeroes each buffer when the consumer releases it — one of
	// §3.1's cheaper mitigations for garbled data ("cheaply zero-filling a
	// buffer before use"): a reservation that is never written then
	// decodes as a clean, detectable hole rather than as stale events from
	// the buffer's previous generation. Release time is the only moment a
	// slot is quiescent, so ZeroFill requires Stream mode.
	ZeroFill bool
	// BatchWords enables the per-P batched fast path (the PLog1..PLog4
	// entry points): each runtime processor keeps a private Batch of this
	// many words, refilled with one reservation CAS and consumed with
	// plain arithmetic. Larger batches amortize the CAS over more events
	// but freeze the timestamp over more of them (every event in a batch
	// carries the batch-open stamp) and waste more tail filler when
	// traffic is bursty. 0 (the default) disables batching: PLog calls
	// become plain per-CPU logs with P-affinity. Must leave room for the
	// buffer's clock anchor: BatchWords <= BufWords - 2.
	BatchWords int
	// UnsafeStaleTimestamp, when set, reads the timestamp once before the
	// CAS loop instead of inside it. This deliberately reintroduces the bug
	// the paper warns about — "that process may be interrupted by another
	// process [which] gets the next slot in the buffer, but obtains an
	// earlier timestamp" — and exists only for the ablation test and bench
	// that demonstrate why in-loop re-reading matters.
	UnsafeStaleTimestamp bool
}

// Defaults mirroring a 128KiB-buffer K42 configuration scaled down for
// tests; production users set their own.
const (
	DefaultBufWords = 16384 // 128 KiB of 64-bit words
	DefaultNumBufs  = 4
)

func (c *Config) fill() error {
	if c.CPUs < 1 {
		return fmt.Errorf("core: CPUs must be >= 1, got %d", c.CPUs)
	}
	if c.BufWords == 0 {
		c.BufWords = DefaultBufWords
	}
	if c.NumBufs == 0 {
		c.NumBufs = DefaultNumBufs
	}
	if c.BufWords < 16 || bits.OnesCount(uint(c.BufWords)) != 1 {
		return fmt.Errorf("core: BufWords must be a power of two >= 16, got %d", c.BufWords)
	}
	if c.NumBufs < 2 || bits.OnesCount(uint(c.NumBufs)) != 1 {
		return fmt.Errorf("core: NumBufs must be a power of two >= 2, got %d", c.NumBufs)
	}
	if c.Clock == nil {
		c.Clock = clock.NewSync()
	}
	if c.Mode != FlightRecorder && c.Mode != Stream {
		return fmt.Errorf("core: unknown mode %d", c.Mode)
	}
	if c.ZeroFill && c.Mode != Stream {
		return fmt.Errorf("core: ZeroFill requires Stream mode (buffers are only quiescent at Release)")
	}
	if c.BatchWords < 0 || c.BatchWords > c.BufWords-2 {
		return fmt.Errorf("core: BatchWords must be in [0, BufWords-2], got %d (BufWords %d)",
			c.BatchWords, c.BufWords)
	}
	return nil
}
