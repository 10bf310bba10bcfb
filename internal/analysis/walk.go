// Package analysis implements the paper's post-processing tools on decoded
// event streams: the textual event lister (Figure 5), the lock-contention
// analyzer (Figure 7), the statistical execution profile (Figure 6), the
// fine-grained time breakdown (Figure 8), and the per-CPU timeline
// visualizer (Figure 4, rendered as ASCII and SVG).
//
// All tools share one reconstruction: by replaying scheduling events
// (SCHED_SWITCH), domain crossings (SYSCALL enter/exit, PPC call/return,
// page-fault enter/done), and lock events in per-CPU stream order, the
// walker knows at every instant which process a CPU was executing for and
// in which mode — the payoff of the unified tracing infrastructure, where
// "because we had integrated scheduling events ... we were able to see
// what was actually occurring."
package analysis

import (
	"k42trace/internal/event"
	"k42trace/internal/ksim"
)

// ModeKind classifies what a CPU is doing.
type ModeKind int

const (
	// ModeUser is application execution.
	ModeUser ModeKind = iota
	// ModeSyscall is kernel execution on behalf of a process.
	ModeSyscall
	// ModeIPC is server execution reached through a PPC call.
	ModeIPC
	// ModePgflt is page-fault handling.
	ModePgflt
	// ModeIRQ is interrupt handling.
	ModeIRQ
	// ModeIdle is an idle CPU.
	ModeIdle
	// ModeLockWait is spinning on a contended lock.
	ModeLockWait
)

func (m ModeKind) String() string {
	switch m {
	case ModeUser:
		return "user"
	case ModeSyscall:
		return "syscall"
	case ModeIPC:
		return "ipc"
	case ModePgflt:
		return "pgflt"
	case ModeIRQ:
		return "irq"
	case ModeIdle:
		return "idle"
	case ModeLockWait:
		return "lockwait"
	}
	return "?"
}

// frame is one entry of a CPU's domain/mode stack.
type frame struct {
	kind ModeKind
	nr   uint64 // syscall number for ModeSyscall
	pid  uint64 // domain pid (kernel 0, server id, ...)
}

// CPUState is the reconstructed state of one CPU at a point in the stream.
type CPUState struct {
	// Pid is the scheduled process (from SCHED_SWITCH).
	Pid   uint64
	stack []frame
	// Idle and LockWait are modal flags layered over the stack.
	Idle     bool
	LockWait bool
	lastT    uint64
	started  bool
}

// Mode returns the CPU's current mode, with idle and lock-wait taking
// precedence over the domain stack.
func (s *CPUState) Mode() ModeKind {
	switch {
	case s.Idle:
		return ModeIdle
	case s.LockWait:
		return ModeLockWait
	case len(s.stack) == 0:
		return ModeUser
	default:
		return s.stack[len(s.stack)-1].kind
	}
}

// DomainPid returns the pid of the domain executing: the server or kernel
// pid when inside a PPC/syscall, else the scheduled process.
func (s *CPUState) DomainPid() uint64 {
	if n := len(s.stack); n > 0 {
		return s.stack[n-1].pid
	}
	return s.Pid
}

// Syscall returns the innermost enclosing syscall number, or ^0 if none —
// used to categorize IPC time by the syscall that triggered it (Figure 8).
func (s *CPUState) Syscall() (uint64, bool) {
	for i := len(s.stack) - 1; i >= 0; i-- {
		if s.stack[i].kind == ModeSyscall {
			return s.stack[i].nr, true
		}
	}
	return 0, false
}

// Hooks receive the reconstruction as it replays.
type Hooks struct {
	// Span is called for every interval [from, to) of constant state on a
	// CPU, with the state in effect during the interval.
	Span func(cpu int, st *CPUState, from, to uint64)
	// Event is called for every event, with the CPU's state as of just
	// before the event was applied.
	Event func(e *event.Event, st *CPUState)
}

// Walk replays a time-merged event stream (per-CPU order preserved, as
// produced by stream.Reader.ReadAll or core dumps concatenated per CPU)
// through the state machine.
func Walk(evs []event.Event, maxCPU int, h Hooks) {
	NewStreamWalker(maxCPU, h).Feed(evs)
}

// StreamWalker is the resumable form of Walk: state carries across Feed
// calls, so a stream can be replayed in chunks (e.g. block by block) with
// results identical to a single Walk over the concatenation. Because the
// state machine is strictly per-CPU, feeding one CPU's whole stream
// through its own walker is likewise identical to walking the global
// merge — the basis of the parallel analysis pipeline, where a lock
// acquired in block k and released in block k+1 is stitched simply by
// keeping the per-CPU state alive between blocks.
type StreamWalker struct {
	states []CPUState
	hooks  Hooks
}

// NewStreamWalker returns a walker for CPUs 0..maxCPU with fresh state.
func NewStreamWalker(maxCPU int, h Hooks) *StreamWalker {
	return &StreamWalker{states: make([]CPUState, maxCPU+1), hooks: h}
}

// EnsureCPUs grows the walker to cover CPUs 0..n-1, keeping existing
// per-CPU state intact. Feed ignores events on CPUs the walker was not
// sized for, so a live collector whose CPU space grows as producers
// attach must call this before feeding a new producer's blocks.
func (w *StreamWalker) EnsureCPUs(n int) {
	for len(w.states) < n {
		w.states = append(w.states, CPUState{})
	}
}

// Feed replays a chunk of events, continuing from wherever the previous
// chunk left each CPU.
func (w *StreamWalker) Feed(evs []event.Event) {
	w.feed(whole(evs))
}

func (w *StreamWalker) feed(v view) {
	for _, r := range v.runs {
		for i := range r {
			w.step(&r[i])
		}
	}
	if v.all {
		for i := range v.evs {
			w.step(&v.evs[i])
		}
	}
	for _, i := range v.pos {
		w.step(&v.evs[i])
	}
}

// step replays one event.
func (w *StreamWalker) step(e *event.Event) {
	if e.CPU < 0 || e.CPU >= len(w.states) {
		return
	}
	st := &w.states[e.CPU]
	if st.started && w.hooks.Span != nil && e.Time > st.lastT {
		w.hooks.Span(e.CPU, st, st.lastT, e.Time)
	}
	st.lastT = e.Time
	st.started = true
	if w.hooks.Event != nil {
		w.hooks.Event(e, st)
	}
	apply(e, st)
}

// apply advances one CPU's state by one event.
func apply(e *event.Event, st *CPUState) {
	switch e.Major() {
	case event.MajorSched:
		switch e.Minor() {
		case ksim.EvSchedSwitch:
			if len(e.Data) >= 2 {
				st.Pid = e.Data[1]
			}
			st.stack = st.stack[:0]
			st.Idle = false
			st.LockWait = false
		case ksim.EvSchedIdle:
			st.Idle = true
		case ksim.EvSchedResume:
			st.Idle = false
		}
	case event.MajorSyscall:
		switch e.Minor() {
		case ksim.EvSyscallEnter:
			nr := uint64(0)
			if len(e.Data) >= 2 {
				nr = e.Data[1]
			}
			st.stack = append(st.stack, frame{kind: ModeSyscall, nr: nr, pid: ksim.PidKernel})
		case ksim.EvSyscallExit:
			st.pop(ModeSyscall)
		}
	case event.MajorException:
		switch e.Minor() {
		case ksim.EvPPCCall:
			target := uint64(ksim.PidBaseServers)
			if len(e.Data) >= 1 {
				target = e.Data[0]
			}
			st.stack = append(st.stack, frame{kind: ModeIPC, pid: target})
		case ksim.EvPPCReturn:
			st.pop(ModeIPC)
		case ksim.EvPgflt:
			st.stack = append(st.stack, frame{kind: ModePgflt, pid: ksim.PidKernel})
		case ksim.EvPgfltDone:
			st.pop(ModePgflt)
		case ksim.EvIRQEnter:
			st.stack = append(st.stack, frame{kind: ModeIRQ, pid: ksim.PidKernel})
		case ksim.EvIRQExit:
			st.pop(ModeIRQ)
		}
	case event.MajorLock:
		switch e.Minor() {
		case ksim.EvLockStartWait:
			st.LockWait = true
		case ksim.EvLockAcquired:
			st.LockWait = false
		}
	}
}

// pop removes the innermost frame of the given kind (tolerating streams
// that lost the matching push to a flight-recorder wrap).
func (s *CPUState) pop(kind ModeKind) {
	for i := len(s.stack) - 1; i >= 0; i-- {
		if s.stack[i].kind == kind {
			s.stack = append(s.stack[:i], s.stack[i+1:]...)
			return
		}
	}
}

// MaxCPU returns the highest CPU index in the stream.
func MaxCPU(evs []event.Event) int {
	m := 0
	for i := range evs {
		if evs[i].CPU > m {
			m = evs[i].CPU
		}
	}
	return m
}
