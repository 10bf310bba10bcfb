// Package clock provides the timestamp sources used by the tracing
// infrastructure, modeling the two hardware regimes the paper describes:
//
//   - a cheap synchronized clock readable from user level (PowerPC/MIPS
//     timebase) — the Sync source;
//   - per-CPU unsynchronized cycle counters (x86 tsc) that must be related
//     to wall time by interpolating between gettimeofday anchors, as the
//     Linux Trace Toolkit does — the TSC source plus Interpolator.
//
// It also provides the 32-bit timestamp unwrapping used by trace readers:
// event headers carry only the low 32 bits of the timestamp, and each
// buffer's clock-anchor event carries the full 64-bit value.
package clock

import (
	"sync/atomic"
	"time"
)

// Source produces trace timestamps. Now takes the logging CPU because
// unsynchronized sources (TSC) return per-CPU-skewed values; synchronized
// sources ignore it. Timestamps from a Source must be non-decreasing per
// CPU when calls on that CPU are totally ordered.
type Source interface {
	// Now returns the current timestamp in ticks as observed on cpu.
	Now(cpu int) uint64
	// Hz returns the tick rate, used by tools to convert to seconds.
	Hz() uint64
}

// Sync is a synchronized clock shared by all CPUs, the analogue of the
// PowerPC timebase: cheap to read and globally consistent, so buffers from
// different processors can be merged by timestamp directly. Ticks are
// nanoseconds since the Sync was created.
type Sync struct {
	base time.Time
}

// NewSync returns a synchronized nanosecond clock starting near zero.
func NewSync() *Sync { return &Sync{base: time.Now()} }

// Now returns nanoseconds since the clock was created; cpu is ignored.
func (s *Sync) Now(cpu int) uint64 { return uint64(time.Since(s.base)) }

// Hz returns 1e9: Sync ticks are nanoseconds.
func (s *Sync) Hz() uint64 { return 1e9 }

// Manual is a deterministic source for tests: every Now call advances the
// clock by step ticks, so timestamps are strictly increasing and runs are
// reproducible. It is safe for concurrent use.
type Manual struct {
	ticks atomic.Uint64
	step  uint64
}

// NewManual returns a Manual clock advancing by step per read (step 0 is
// treated as 1).
func NewManual(step uint64) *Manual {
	if step == 0 {
		step = 1
	}
	return &Manual{step: step}
}

// Now advances the clock and returns the new value; cpu is ignored.
func (m *Manual) Now(cpu int) uint64 { return m.ticks.Add(m.step) }

// advance adds d ticks without returning a reading, for tests that need to
// move time between events.
func (m *Manual) advance(d uint64) { m.ticks.Add(d) }

// Hz returns 1e9 so Manual ticks read as nanoseconds in tools.
func (m *Manual) Hz() uint64 { return 1e9 }

// Unwrapper reconstructs full 64-bit timestamps from the 32-bit stamps in
// event headers. Because per-stream timestamps are monotonically
// non-decreasing (the CAS loop re-reads the clock on every retry), a
// decrease in the 32-bit value means the counter wrapped. Each buffer's
// clock-anchor event seeds the high bits.
type Unwrapper struct {
	hi   uint64 // current epoch (multiples of 2^32)
	last uint32 // last 32-bit stamp seen
}

// Seed initializes the unwrapper from a full 64-bit anchor timestamp.
func (u *Unwrapper) Seed(full uint64) {
	u.hi = full &^ 0xffffffff
	u.last = uint32(full)
}

// Full returns the 64-bit timestamp for a 32-bit header stamp, advancing
// the epoch on wrap.
func (u *Unwrapper) Full(ts32 uint32) uint64 {
	if ts32 < u.last {
		u.hi += 1 << 32
	}
	u.last = ts32
	return u.hi | uint64(ts32)
}
