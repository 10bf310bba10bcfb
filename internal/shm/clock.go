package shm

import (
	"sync/atomic"

	"k42trace/internal/clock"
)

// counterClock is the deterministic segment clock: per-CPU tick counters
// living in the mapping, advanced by fetch-add from whichever process
// reserves. Identical per-CPU logging sequences then yield identical
// timestamps no matter how the processes interleave in real time — the
// basis of the cross-process analysis-parity test. (clock.Manual cannot
// serve here: it is a single in-process counter.)
type counterClock struct {
	words []uint64
	lay   layout
}

func (c counterClock) Now(cpu int) uint64 {
	return atomic.AddUint64(&c.words[c.lay.clockWord(cpu)], 1)
}

func (c counterClock) Hz() uint64 { return 1e9 }

// monoClock timestamps with the machine's monotonic clock relative to the
// base reading stored in the segment header: the shared, step-free
// timebase of every segment not made deterministic. CLOCK_MONOTONIC is
// per-machine, not per-process, so stamps from every attached process are
// directly comparable, and NTP can only slew it — never step it — so the
// per-CPU monotonicity the reserve loop depends on cannot be broken by
// time administration. Reads go through the vDSO (no kernel entry).
type monoClock struct {
	baseMonoNano int64
}

func (c monoClock) Now(cpu int) uint64 {
	return uint64(nanotime() - c.baseMonoNano)
}

func (c monoClock) Hz() uint64 { return 1e9 }

// segClock selects the timestamp source recorded in the segment header,
// so every attacher logs in the timebase the segment was created with.
func segClock(s *segment) clock.Source {
	if s.words[hdrClockMode] == clockDeterministic {
		return counterClock{words: s.words, lay: s.lay}
	}
	return monoClock{baseMonoNano: int64(s.words[hdrBaseMonoNano])}
}
