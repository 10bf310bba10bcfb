package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"k42trace/internal/clock"
	"k42trace/internal/event"
)

// anchorWords is the size of the clock-anchor event that begins every
// buffer: header + one payload word carrying the full 64-bit timestamp.
const anchorWords = 2

// Tracer is a unified tracing facility: a 64-bit mask gating 64 major
// event classes, per-CPU lockless buffers, and either flight-recorder or
// streaming buffer management. A single Tracer serves "applications,
// libraries, servers, and the kernel" — every component logs into the
// same per-CPU buffers with monotonically increasing timestamps.
type Tracer struct {
	mask atomic.Uint64
	_    [56]byte // keep the hot mask word on its own line

	cfg      Config
	clock    clock.Source
	cpus     []*Arena // one per processor slot; see New
	bufWords uint64
	numBufs  uint64
	sealed   chan Sealed
	stopped  atomic.Bool

	// maskMu serializes ApplyMask calls so the in-band CtrlMaskChange
	// markers on each CPU appear in the same order the masks were applied.
	maskMu      sync.Mutex
	maskApplies atomic.Uint64

	// Per-P batched fast path (see fastpath.go). pauseMu serializes the
	// pauseBatches/resumeBatches pairs that quiescence waits bracket
	// themselves with.
	pslots     []pSlot
	batchWords int
	pauseMu    sync.Mutex
}

// New creates a Tracer. The returned tracer has an all-zero mask: tracing
// is compiled in but disabled, the paper's always-ready resting state.
func New(cfg Config) (*Tracer, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	t := &Tracer{
		cfg:      cfg,
		clock:    cfg.Clock,
		bufWords: uint64(cfg.BufWords),
		numBufs:  uint64(cfg.NumBufs),
	}
	// Seal channel sized so a sealing writer never blocks: at most NumBufs
	// outstanding seals per CPU plus one flush partial per CPU.
	t.sealed = make(chan Sealed, (cfg.NumBufs+1)*cfg.CPUs)
	var onFull func() bool
	if cfg.Mode == Stream && cfg.OnFull == Block {
		// A parked batch keeps its buffer from sealing. If the ring has
		// wrapped onto that buffer and the P the batch is parked on logs
		// nothing more, the waiter is the only one left to close it.
		onFull = func() bool { t.closeParkedBatches(); runtime.Gosched(); return true }
	}
	// Each CPU's control words and buffer ring are separate allocations,
	// so different CPUs' hot state never shares a cache line (the paper's
	// "memory bound to a specific processor").
	t.cpus = make([]*Arena, cfg.CPUs)
	for i := range t.cpus {
		a, err := NewArena(ArenaConfig{
			Ctl:                  make([]uint64, CtlWords(cfg.NumBufs)),
			Buf:                  make([]uint64, cfg.BufWords*cfg.NumBufs),
			Mask:                 &t.mask,
			Clock:                cfg.Clock,
			CPU:                  i,
			BufWords:             cfg.BufWords,
			NumBufs:              cfg.NumBufs,
			Stream:               cfg.Mode == Stream,
			UnsafeStaleTimestamp: cfg.UnsafeStaleTimestamp,
			OnSeal:               func(s Sealed) { t.sealed <- s },
			OnFull:               onFull,
		})
		if err != nil {
			return nil, err
		}
		t.cpus[i] = a
	}
	t.initFastPath(cfg.BatchWords)
	return t, nil
}

// MustNew is New for tests and examples; it panics on config errors.
func MustNew(cfg Config) *Tracer {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Clock returns the tracer's timestamp source.
func (t *Tracer) Clock() clock.Source { return t.clock }

// NumCPUs returns the number of processor slots.
func (t *Tracer) NumCPUs() int { return len(t.cpus) }

// BufWords returns the buffer (alignment boundary) size in words.
func (t *Tracer) BufWords() int { return int(t.bufWords) }

// --- Trace mask -----------------------------------------------------------
//
// "By limiting the number of major classes to 64, a single comparison of a
// major class bit against a trace mask variable can determine whether an
// event should be logged." The mask is the only state examined on the
// disabled path, so disabled trace points cost a load, an AND, and a
// branch.

// Enabled reports whether events of the major class are currently logged.
func (t *Tracer) Enabled(m event.Major) bool {
	return t.mask.Load()&m.Bit() != 0
}

// Mask returns the current 64-bit trace mask.
func (t *Tracer) Mask() uint64 { return t.mask.Load() }

// SetMask replaces the trace mask.
func (t *Tracer) SetMask(m uint64) { t.mask.Store(m) }

// Enable turns on logging for the given major classes.
func (t *Tracer) Enable(majors ...event.Major) {
	var bitsToSet uint64
	for _, m := range majors {
		bitsToSet |= m.Bit()
	}
	for {
		old := t.mask.Load()
		if t.mask.CompareAndSwap(old, old|bitsToSet) {
			return
		}
	}
}

// Disable turns off logging for the given major classes.
func (t *Tracer) Disable(majors ...event.Major) {
	var bitsToClear uint64
	for _, m := range majors {
		bitsToClear |= m.Bit()
	}
	for {
		old := t.mask.Load()
		if t.mask.CompareAndSwap(old, old&^bitsToClear) {
			return
		}
	}
}

// EnableAll enables every major class.
func (t *Tracer) EnableAll() { t.mask.Store(^uint64(0)) }

// DisableAll disables all tracing; trace points reduce to the mask check.
func (t *Tracer) DisableAll() { t.mask.Store(0) }

// ApplyMask installs a new trace mask and stamps the moment it took effect
// into every CPU's event stream with a MajorControl/CtrlMaskChange event
// (payload: new mask, previous mask). This is the runtime control-plane
// entry point: unlike SetMask, which flips the atomic silently, ApplyMask
// leaves an in-band record so analyses can tell "the mask narrowed" from
// "the workload went quiet".
//
// The MajorControl bit is always forced on in the applied mask: control
// events (anchors, fillers, mask markers) are what keep a stream decodable
// and epoch-annotated, so the control plane never disables them. This also
// keeps ApplyMask compatible with Quiesce's drain: begin() re-checks the
// mask after raising inflight, so disabled majors stop reserving the
// instant the swap lands.
//
// Per CPU the marker is logged only after that CPU's in-flight loggers
// have been observed at zero. A logger that starts after the swap sees the
// new mask (begin()'s re-check), and a logger observed in flight completed
// before the marker's reservation — so on each CPU, every event reserved
// after the marker is governed by the new mask (until a later ApplyMask).
// Events of a newly disabled major therefore never land after its marker.
//
// Concurrent ApplyMask calls are serialized. Like the other mask setters
// it must not race Stop, and — like Quiesce — it requires the consumer to
// keep draining Sealed if a logger is blocked on a full ring (OnFull:
// Block). It returns the previous mask.
func (t *Tracer) ApplyMask(newMask uint64) (old uint64) {
	newMask |= event.MajorControl.Bit()
	t.maskMu.Lock()
	defer t.maskMu.Unlock()
	old = t.mask.Swap(newMask)
	if old == newMask {
		return old
	}
	t.maskApplies.Add(1)
	// Parked per-P batches hold their openers in flight; close them (and
	// hold the shard claims) or the quiescence waits below would never
	// see zero under a steady PLog load.
	t.pauseBatches()
	for i := range t.cpus {
		// The wait is a sampling race: inflight is only zero in the gaps
		// between logging calls (the new mask still enables them); the
		// arena's quiescence wait backs off to real sleeps so it cannot
		// starve on GOMAXPROCS=1.
		t.cpus[i].WaitQuiescent()
		t.CPU(i).Log2(event.MajorControl, event.CtrlMaskChange, newMask, old)
	}
	t.resumeBatches()
	return old
}

// MaskApplies returns the number of ApplyMask calls that changed the mask.
func (t *Tracer) MaskApplies() uint64 { return t.maskApplies.Load() }

// CPU returns the logging handle for processor slot i.
func (t *Tracer) CPU(i int) CPU { return t.cpus[i].Handle() }
