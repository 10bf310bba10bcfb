// Package ktrace is a Go implementation of the unified tracing
// infrastructure described in "Efficient, Unified, and Scalable
// Performance Monitoring for Multiprocessor Operating Systems" (Wisniewski
// and Rosenberg, SC 2003) — the K42 tracing facility whose techniques were
// later adopted by the Linux Trace Toolkit and relayfs.
//
// The library provides:
//
//   - Lockless logging of variable-length events into per-processor
//     buffers: space is reserved with a compare-and-swap on a per-CPU
//     index, and the timestamp is re-read on every retry so per-CPU
//     streams carry monotonically non-decreasing timestamps.
//   - A single 64-bit trace mask over 64 major event classes, cheap
//     enough that trace statements stay compiled in always and are
//     enabled dynamically.
//   - Random access to large traces: events never cross buffer
//     (alignment-boundary) edges; filler events pad buffer tails, so
//     tools can seek to any boundary of a multi-gigabyte trace and start
//     decoding.
//   - Per-buffer commit counts that detect garbled buffers (a writer
//     killed between reserving and logging).
//   - Self-describing events: each (major, minor) pair registers a token
//     format and a printf-like display string, so generic tools can list
//     and render any event.
//   - Flight-recorder (circular) and streaming modes, with a file
//     transport (and a network, relayfs-style one in cmd/tracerelay,
//     cmd/ktraced and cmd/tracecolld), plus the paper's analysis
//     tools: event listing, lock-contention analysis, statistical
//     execution profiles, fine-grained time breakdowns, and per-CPU
//     timeline rendering.
//
// # Quick start
//
//	tr := ktrace.MustNew(ktrace.Config{CPUs: 4})
//	tr.EnableAll()
//	cpu := tr.CPU(0)                       // per-processor logging handle
//	cpu.Log1(ktrace.MajorUser, 7, 42)      // one-payload-word event
//	events, _ := tr.Dump(0)                // flight-recorder readout
//
// For streaming to disk, create the tracer with Mode: ktrace.Stream and
// drain it with ktrace.Capture; open the result with ktrace.OpenTraceFile
// or ktrace.NewReader and feed the decoded events to ktrace.BuildTrace for
// analysis.
//
// The repository also contains, under internal/, the substrates used to
// reproduce the paper's evaluation: a deterministic multiprocessor OS
// simulator (internal/ksim), an SDET-style throughput workload
// (internal/sdet), and the comparison loggers (internal/baseline).
package ktrace

import (
	"io"

	"k42trace/internal/analysis"
	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/shm"
	"k42trace/internal/stream"
)

// --- Core tracer -------------------------------------------------------------

// Tracer is the unified tracing facility; see core.Tracer.
type Tracer = core.Tracer

// Config configures a Tracer.
type Config = core.Config

// CPU is a per-processor logging handle, over a Tracer's buffers
// (Tracer.CPU) or a shared segment's (ShmClient.CPU) alike.
type CPU = core.CPU

// Mode selects buffer management.
type Mode = core.Mode

// Buffer-management modes.
const (
	FlightRecorder = core.FlightRecorder
	Stream         = core.Stream
)

// OnFull is the stream-mode full-buffer policy.
type OnFull = core.OnFull

// Full-buffer policies.
const (
	Block = core.Block
	Drop  = core.Drop
)

// Sealed is a completed buffer delivered to stream consumers.
type Sealed = core.Sealed

// Batch is a per-logger sub-allocator: one reservation CAS claims many
// events' worth of trace memory, and events are then appended with plain
// stores — see core.Batch. Open one with CPU.OpenBatch, on a Tracer's
// handle or a shared segment's; Config.BatchWords enables the
// transparent per-P batched fast path behind Tracer.PLog1..PLog4.
type Batch = core.Batch

// Stats is a snapshot of tracing counters.
type Stats = core.Stats

// DecodeStats reports what a buffer decode encountered.
type DecodeStats = core.DecodeStats

// DumpInfo describes a flight-recorder dump.
type DumpInfo = core.DumpInfo

// New creates a Tracer; the zero mask means tracing starts disabled.
func New(cfg Config) (*Tracer, error) { return core.New(cfg) }

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Tracer { return core.MustNew(cfg) }

// DecodeBuffer decodes one buffer's raw words.
func DecodeBuffer(cpu int, words []uint64) ([]Event, DecodeStats) {
	return core.DecodeBuffer(cpu, words)
}

// Redact copies a buffer with events outside the visibility mask replaced
// by same-length fillers (per-user trace views; see core.Redact).
func Redact(words []uint64, visible uint64) []uint64 { return core.Redact(words, visible) }

// VisibleMask builds a visibility mask from major classes.
func VisibleMask(majors ...Major) uint64 { return core.VisibleMask(majors...) }

// --- Events ------------------------------------------------------------------

// Event is a decoded trace event.
type Event = event.Event

// Header is the packed first word of an event.
type Header = event.Header

// Major is a 6-bit event class; one bit of the trace mask each.
type Major = event.Major

// Predeclared major classes.
const (
	MajorControl   = event.MajorControl
	MajorMem       = event.MajorMem
	MajorProc      = event.MajorProc
	MajorSched     = event.MajorSched
	MajorLock      = event.MajorLock
	MajorIO        = event.MajorIO
	MajorIPC       = event.MajorIPC
	MajorException = event.MajorException
	MajorUser      = event.MajorUser
	MajorSyscall   = event.MajorSyscall
	MajorSample    = event.MajorSample
	MajorAlloc     = event.MajorAlloc
	MajorNet       = event.MajorNet
	MajorTest      = event.MajorTest
	NumMajors      = event.NumMajors
)

// CtrlMaskChange is the MajorControl minor that marks the instant a new
// trace mask took effect on a CPU (payload: new mask, previous mask).
// Within one CPU's stream it is an exact visibility-epoch boundary.
const CtrlMaskChange = event.CtrlMaskChange

// ParseMask parses a trace-mask spec: "all", "none", a hex or decimal
// literal, or comma-separated major names ("ctrl,sched,lock"). Name
// lists always include the CTRL bit so control markers keep flowing.
func ParseMask(spec string) (uint64, error) { return event.ParseMask(spec) }

// MaskString renders a trace mask as a hex literal.
func MaskString(mask uint64) string { return event.MaskString(mask) }

// MaskMajors lists the enabled majors' names, sorted by bit position.
func MaskMajors(mask uint64) []string { return event.MaskMajors(mask) }

// Registry maps (major, minor) to self-describing event records.
type Registry = event.Registry

// Desc is one self-describing event record.
type Desc = event.Desc

// Value is a decoded payload field.
type Value = event.Value

// Token describes one payload field's width.
type Token = event.Token

// DefaultRegistry returns the process-wide event registry.
func DefaultRegistry() *Registry { return event.Default }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return event.NewRegistry() }

// Describe renders an event's name and display text via a registry.
func Describe(r *Registry, e *Event) (name, text string) { return event.Describe(r, e) }

// Pack encodes values per a token list into payload words.
func Pack(toks []Token, vals []Value) ([]uint64, error) { return event.Pack(toks, vals) }

// Unpack decodes payload words per a token list.
func Unpack(toks []Token, words []uint64) ([]Value, error) { return event.Unpack(toks, words) }

// ParseTokens parses a K42-style token string such as "64 64 str".
func ParseTokens(s string) ([]Token, error) { return event.ParseTokens(s) }

// --- Clocks ------------------------------------------------------------------

// ClockSource produces trace timestamps.
type ClockSource = clock.Source

// SyncClock is a shared synchronized nanosecond clock (PowerPC-style).
type SyncClock = clock.Sync

// ManualClock is a deterministic test clock.
type ManualClock = clock.Manual

// TSCClock models per-CPU skewed counters (x86-style).
type TSCClock = clock.TSC

// NewSyncClock returns a synchronized nanosecond clock.
func NewSyncClock() *SyncClock { return clock.NewSync() }

// NewManualClock returns a deterministic clock advancing step per read.
func NewManualClock(step uint64) *ManualClock { return clock.NewManual(step) }

// --- Trace files ---------------------------------------------------------------

// TraceReader provides random access to a trace file.
type TraceReader = stream.Reader

// TraceMeta describes a trace file.
type TraceMeta = stream.Meta

// BlockStream reads the trace format sequentially (pipes, sockets).
type BlockStream = stream.BlockStream

// CaptureStats summarizes a capture run.
type CaptureStats = stream.CaptureStats

// NewReader opens a trace file of the given size for random access.
func NewReader(r io.ReaderAt, size int64) (*TraceReader, error) { return stream.NewReader(r, size) }

// Source is what Capture drains: a stream-mode Tracer, or the ShmAgent of
// a shared segment.
type Source = stream.Source

// Capture drains a source into w until it stops.
func Capture(src Source, w io.Writer) (CaptureStats, error) { return stream.Capture(src, w) }

// CaptureAsync runs Capture in a goroutine; call the returned function
// after the source's Stop to collect the result.
func CaptureAsync(src Source, w io.Writer) func() (CaptureStats, error) {
	return stream.CaptureAsync(src, w)
}

// WriteCrashDump writes the tracer's flight recorder — each CPU's resident
// buffers — to w as a trace file, which NewReader, OpenTraceFile and every
// ktrace verb read like any other.
func WriteCrashDump(tr *Tracer, w io.Writer) error { return stream.WriteCrashDump(tr, w) }

// SalvageReport describes what a forgiving read recovered from a damaged
// trace: blocks scanned and quarantined, duplicate and lost deliveries,
// and exact per-CPU loss accounting.
type SalvageReport = stream.SalvageReport

// BadBlock is one quarantined block in a SalvageReport.
type BadBlock = stream.BadBlock

// Salvage reads a possibly damaged trace forgivingly: undecodable blocks
// are quarantined and reported instead of failing the read, and a
// destroyed file header is recovered by scanning for block magics.
func Salvage(r io.ReaderAt, size int64, workers int) ([]Event, *SalvageReport, error) {
	return stream.Salvage(r, size, workers)
}

// SalvageTo rewrites the readable blocks of a damaged trace into w as a
// clean trace file openable with NewReader. It scans r and then copies each
// surviving block from r to w, so r must not change during the call: w must
// not be r's storage.
func SalvageTo(r io.ReaderAt, size int64, w io.Writer, workers int) (*SalvageReport, error) {
	return stream.SalvageTo(r, size, w, workers)
}

// --- Analysis ------------------------------------------------------------------

// Trace is a decoded stream plus its naming context; the input to all
// analysis tools.
type Trace = analysis.Trace

// LockReport is the Figure 7 lock-contention report.
type LockReport = analysis.LockReport

// Profile is the Figure 6 statistical execution profile.
type Profile = analysis.Profile

// TimeBreak is the Figure 8 fine-grained time breakdown.
type TimeBreak = analysis.TimeBreak

// Timeline is the Figure 4 per-CPU timeline.
type Timeline = analysis.Timeline

// TimelineExport is the exact-span timeline export: JSON data plus the
// self-contained interactive HTML renderer (ktrace kmon -html, ktrace diff -html).
type TimelineExport = analysis.TimelineExport

// Occupancy is the windowed per-mode/per-CPU/per-major occupancy
// aggregate underlying the differential (ktrace diff) analysis.
type Occupancy = analysis.Occupancy

// WriteTimelineHTML renders one or more exported timelines stacked in a
// single self-contained interactive HTML page (no network references).
func WriteTimelineHTML(w io.Writer, title string, runs ...*TimelineExport) error {
	return analysis.WriteTimelineHTML(w, title, runs...)
}

// ListOptions filter event listings.
type ListOptions = analysis.ListOptions

// DeadlockReport is the lock-order cycle analysis (§4.2 correctness
// debugging).
type DeadlockReport = analysis.DeadlockReport

// MemReport is the hardware-counter memory hot-spot analysis (§2).
type MemReport = analysis.MemReport

// ValidationReport is the structural trace-invariant check.
type ValidationReport = analysis.ValidationReport

// BuildTrace constructs an analysis Trace from decoded events.
func BuildTrace(evs []Event, hz uint64, reg *Registry) *Trace {
	return analysis.Build(evs, hz, reg)
}

// --- Shared-memory cross-process tracing -------------------------------------
//
// The internal/shm subsystem maps a versioned segment file MAP_SHARED
// into any number of real OS processes, which then run the same lockless
// reserve/commit protocol as the in-process tracer directly on the shared
// words — the paper's "buffers are mapped into the address space of the
// application" design. A ktraced daemon (or an in-process ShmAgent) owns
// each segment, drains sealed buffers the way a Tracer's are drained, and
// writes off clients that die without detaching.

// ShmClient is a process's attachment to a shared trace segment.
type ShmClient = shm.Client

// ShmAgent is the daemon side of a shared segment (ktraced embeds one).
// It is a Source like a Tracer, so the one drain serves both: into
// a file with Capture, or over the network with the relay senders.
type ShmAgent = shm.Agent

// ShmGeometry describes a segment to create.
type ShmGeometry = shm.Geometry

// ShmInfo is a live segment snapshot (ktrace check -shm).
type ShmInfo = shm.Info

// Attach maps the shared trace segment at path and claims a client slot;
// the process then logs through its CPU handles with no system calls.
func Attach(path string) (*ShmClient, error) { return shm.Attach(path) }

// CreateShmSegment creates and publishes a shared trace segment, owned by
// the returned agent. Most deployments run cmd/ktraced instead.
func CreateShmSegment(path string, g ShmGeometry) (*ShmAgent, error) { return shm.Create(path, g) }

// InspectShmSegment snapshots a live segment through a read-only mapping
// without disturbing producers.
func InspectShmSegment(path string) (*ShmInfo, error) { return shm.Inspect(path) }
