// Package shm reproduces the paper's user-mapped trace buffers across
// real OS processes: "the buffers are mapped into the address space of
// the application ... allowing applications to log trace events with no
// system call overhead". A versioned segment file on tmpfs holds a
// header, a client table, per-CPU control structures, and per-CPU buffer
// rings mirroring internal/core's geometry; every participant mmaps it
// MAP_SHARED and runs the same lockless CAS reserve/commit protocol —
// core.Arena over the mapping — so attached processes log with plain
// stores while the ktraced daemon seals, drains, and recycles buffers.
//
// Roles:
//
//   - Agent (cmd/ktraced) creates and owns a segment, scans for sealed
//     buffers, writes them out in the stream block format, reaps dead
//     clients by pid liveness, and seals buffers garbled by processes
//     killed between reserve and commit as anomalous.
//   - Client (ktrace.Attach) attaches to an existing segment and logs.
//   - Inspect (ktrace check -shm) reads a live segment without stopping
//     anyone.
package shm

import (
	"fmt"
	"math/bits"

	"k42trace/internal/core"
)

// segMagic begins every segment file: "K42SHSEG" little-endian.
const segMagic uint64 = 0x474553485332344B

// segVersion is the layout version, and the only one openSegment
// accepts. Version 2 added the monotonic timebase (hdrBaseMonoNano), the
// drain doorbell (hdrDoorbell/hdrAgentWait), and per-client masks in the
// client table. A version-1 segment is refused: segments live on tmpfs
// for one boot, and every writer in the tree creates version 2.
const segVersion = 2

// Header word indexes. The header is the segment's first 16 words; fields
// below hdrState are immutable after creation, so readers validate them
// once at map time. hdrMask, hdrState, hdrDoorbell and hdrAgentWait are
// live atomics.
const (
	hdrMagic        = 0  // segMagic
	hdrVersion      = 1  // segVersion
	hdrBufWords     = 2  // buffer size in words
	hdrNumBufs      = 3  // buffers per CPU
	hdrCPUs         = 4  // processor slots
	hdrMaxClients   = 5  // client-table capacity
	hdrClockHz      = 6  // tick rate of the segment clock
	hdrBaseUnixNano = 7  // wall-clock instant of segment tick 0
	hdrMask         = 8  // live trace mask (atomic)
	hdrState        = 9  // live segment state (atomic): see seg* below
	hdrClockMode    = 10 // clockDeterministic or clockMonotonic
	hdrCreateNano   = 11 // creation time, unix nanoseconds (informational)

	// hdrBaseMonoNano is the CLOCK_MONOTONIC reading at segment tick 0:
	// the shared timebase every attached process subtracts from its own
	// monotonic clock. Valid because the monotonic clock is per-machine,
	// not per-process, and trace segments never outlive a boot.
	hdrBaseMonoNano = 12
	// hdrDoorbell is the drain doorbell: a free-running count of seal
	// events, bumped by producers; its low 32 bits double as the futex
	// word the agent sleeps on. hdrAgentWait is 1 while the agent is
	// (about to be) asleep — producers skip the wake syscall entirely
	// when it is 0, keeping the logging path syscall-free except in the
	// one seal-while-agent-sleeps case.
	hdrDoorbell  = 13
	hdrAgentWait = 14

	hdrWords = 16
)

// Segment states, stored in hdrState.
const (
	segCreating uint64 = iota // header not fully initialized yet
	segReady                  // accepting clients
	segClosing                // daemon shutting down; clients must stop
)

// Clock modes, stored in hdrClockMode. The numbers are part of the
// version-2 header; 0 was version 1's wall clock.
const (
	// clockDeterministic timestamps with a per-CPU shared counter word:
	// every reservation on a CPU gets the next tick regardless of which
	// process made it. Only for reproducible tests.
	clockDeterministic uint64 = 1
	// clockMonotonic timestamps with the machine's monotonic clock
	// relative to hdrBaseMonoNano — step-free (NTP slews but never steps
	// it) and identical in every process, so cross-process streams merge
	// by timestamp without exposure to wall-clock adjustments. The
	// default; hdrBaseUnixNano still records the wall instant of tick 0
	// so tools can print human time.
	clockMonotonic uint64 = 2
)

// Client-table entry word offsets. Each entry is clientWords words.
// Registration and lease stamps are in the segment's lease timebase,
// monotonic ticks (see segment.leaseNow).
const (
	clientPid     = 0 // 0 free, ^0 being reaped, else the attached pid
	clientRegNano = 1 // attach time (lease timebase)
	clientLease   = 2 // last time the daemon observed the pid alive (lease timebase)

	// Per-client trace masks. clientMaskOverride is the operator's
	// per-client narrowing (all-ones = no restriction);
	// clientMaskEff is the word the client's arenas actually gate on,
	// maintained by the daemon as hdrMask & override. Splitting the two
	// keeps the client's hot path at a single mask load while letting
	// global and per-client changes compose in either order.
	clientMaskOverride = 3
	clientMaskEff      = 4

	clientWords = 8
)

// pidTombstone marks a client entry mid-reap: the daemon has seen the pid
// dead and is writing off its in-flight contributions; the slot is not
// yet claimable.
const pidTombstone = ^uint64(0)

// Geometry describes a segment to create. Zero fields take defaults.
type Geometry struct {
	// CPUs is the number of processor slots (default 2). Attached
	// processes pick a slot per logging goroutine; slots are a sharing
	// domain, not an assignment of real CPUs.
	CPUs int
	// BufWords and NumBufs mirror core.Config (defaults 16384 and 4).
	BufWords int
	NumBufs  int
	// MaxClients bounds concurrently attached processes (default 64).
	MaxClients int
	// DeterministicClock replaces the monotonic clock with shared per-CPU
	// tick counters so identical logging sequences produce identical
	// traces regardless of scheduling. Only for reproducible tests.
	DeterministicClock bool
}

func (g *Geometry) fill() error {
	if g.CPUs == 0 {
		g.CPUs = 2
	}
	if g.BufWords == 0 {
		g.BufWords = core.DefaultBufWords
	}
	if g.NumBufs == 0 {
		g.NumBufs = core.DefaultNumBufs
	}
	if g.MaxClients == 0 {
		g.MaxClients = 64
	}
	if g.CPUs < 1 || g.CPUs > 1<<12 {
		return fmt.Errorf("shm: CPUs must be in [1, 4096], got %d", g.CPUs)
	}
	if g.BufWords < 16 || bits.OnesCount(uint(g.BufWords)) != 1 {
		return fmt.Errorf("shm: BufWords must be a power of two >= 16, got %d", g.BufWords)
	}
	if g.NumBufs < 2 || bits.OnesCount(uint(g.NumBufs)) != 1 {
		return fmt.Errorf("shm: NumBufs must be a power of two >= 2, got %d", g.NumBufs)
	}
	if g.MaxClients < 1 || g.MaxClients > 1<<16 {
		return fmt.Errorf("shm: MaxClients must be in [1, 65536], got %d", g.MaxClients)
	}
	return nil
}

// layout holds the word offsets of every section of a mapped segment.
// Section starts are rounded to 8-word (64-byte) boundaries so no two
// sections share a cache line and every atomic word is 8-byte aligned
// (the mapping itself is page-aligned).
type layout struct {
	geo Geometry

	clientsOff  int // client table: MaxClients * clientWords
	inflightOff int // in-flight matrix: MaxClients rows * CPUs words
	clocksOff   int // deterministic clock counters: CPUs * clockStride
	ctlOff      int // per-CPU control regions: CPUs * ctlStride
	bufsOff     int // per-CPU buffer rings: CPUs * NumBufs*BufWords
	ctlStride   int
	totalWords  int
}

// clockStride spaces the per-CPU deterministic clock counters onto
// separate cache lines.
const clockStride = 8

func roundUp8(n int) int { return (n + 7) &^ 7 }

func computeLayout(g Geometry) (layout, error) {
	if err := g.fill(); err != nil {
		return layout{}, err
	}
	l := layout{geo: g}
	off := hdrWords
	l.clientsOff = off
	off += g.MaxClients * clientWords
	l.inflightOff = off
	off += roundUp8(g.MaxClients * g.CPUs)
	l.clocksOff = off
	off += g.CPUs * clockStride
	l.ctlStride = roundUp8(core.CtlWords(g.NumBufs))
	l.ctlOff = off
	off += g.CPUs * l.ctlStride
	l.bufsOff = off
	off += g.CPUs * g.NumBufs * g.BufWords
	l.totalWords = off
	return l, nil
}

// Per-section word index helpers.

func (l layout) clientWord(slot, field int) int {
	return l.clientsOff + slot*clientWords + field
}

// inflightCell is the in-flight counter of one (client, cpu) pair. Giving
// every attached process its own counter row is what makes SIGKILL
// survivable: a single shared counter incremented by a process that then
// dies could never be decremented again, wedging every quiescence wait,
// whereas a per-client cell can be zeroed by the daemon once the pid is
// observed dead.
func (l layout) inflightCell(slot, cpu int) int {
	return l.inflightOff + slot*l.geo.CPUs + cpu
}

func (l layout) clockWord(cpu int) int { return l.clocksOff + cpu*clockStride }

func (l layout) ctlRegion(cpu int) (lo, hi int) {
	lo = l.ctlOff + cpu*l.ctlStride
	return lo, lo + core.CtlWords(l.geo.NumBufs)
}

func (l layout) bufRegion(cpu int) (lo, hi int) {
	ring := l.geo.NumBufs * l.geo.BufWords
	lo = l.bufsOff + cpu*ring
	return lo, lo + ring
}
