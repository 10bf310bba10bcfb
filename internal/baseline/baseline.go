// Package baseline implements the comparator tracing schemes the paper
// discusses so the benchmarks can reproduce its comparative claims:
//
//   - LockLogger: a single event buffer guarded by a lock — the pre-K42
//     Linux/LTT configuration whose replacement by lockless logging gave
//     "an order of magnitude performance improvement".
//   - PerCPULockLogger: per-CPU buffers but still locked, isolating how
//     much of the win comes from per-CPU memory vs. from locklessness.
//   - FixedLogger: lockless fixed-length slots with valid bits — the prior
//     lockless scheme (IRIX[15]) cited in §3.1; demonstrates the space and
//     flexibility costs variable-length events avoid.
//   - SyscallLogger: every event crosses into a "kernel" goroutine via a
//     channel — tracing that requires a system call per event, the AIX/
//     IRIX-era model the user-mapped buffers eliminate.
//
// All loggers share the Logger interface so benchmarks can sweep them
// uniformly; an adapter wraps the real lockless tracer.
package baseline

import (
	"sync"
	"sync/atomic"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
)

// Logger is the uniform logging interface used by comparison benchmarks.
// cpu identifies the logical processor doing the logging; loggers without
// per-CPU structure ignore it.
type Logger interface {
	// Log1 logs a one-payload-word event; the common case in the paper's
	// cost analysis.
	Log1(cpu int, major event.Major, minor uint16, d0 uint64) bool
	// LogWords logs a variable-length event (loggers with fixed slots
	// truncate and report false if it did not fit intact).
	LogWords(cpu int, major event.Major, minor uint16, data []uint64) bool
	// Events returns the number of events recorded.
	Events() uint64
	// WordsUsed returns the buffer words consumed, for space-efficiency
	// comparisons (fixed slots waste the tail of every slot).
	WordsUsed() uint64
	// Name identifies the scheme in benchmark output.
	Name() string
	// Close releases resources (stops helper goroutines).
	Close()
}

// --- LockLogger -------------------------------------------------------------

// LockLogger is the classic shared-buffer, lock-protected tracer: one
// mutex serializes every event from every CPU, and the buffer memory is
// shared, so multiprocessor logging both contends on the lock and bounces
// the buffer's cache lines.
type LockLogger struct {
	mu     sync.Mutex
	clk    clock.Source
	buf    []uint64
	pos    uint64
	mask   uint64
	events uint64
	words  uint64
}

// NewLockLogger creates a LockLogger with a circular buffer of words
// entries (rounded up to a power of two).
func NewLockLogger(words int, clk clock.Source) *LockLogger {
	n := 1
	for n < words {
		n <<= 1
	}
	return &LockLogger{clk: clk, buf: make([]uint64, n), mask: uint64(n - 1)}
}

// Name implements Logger.
func (l *LockLogger) Name() string { return "lock-shared" }

// Log1 implements Logger.
func (l *LockLogger) Log1(cpu int, major event.Major, minor uint16, d0 uint64) bool {
	l.mu.Lock()
	ts := l.clk.Now(cpu)
	l.buf[l.pos&l.mask] = uint64(event.MakeHeader(uint32(ts), 2, major, minor))
	l.buf[(l.pos+1)&l.mask] = d0
	l.pos += 2
	l.events++
	l.words += 2
	l.mu.Unlock()
	return true
}

// LogWords implements Logger.
func (l *LockLogger) LogWords(cpu int, major event.Major, minor uint16, data []uint64) bool {
	n := uint64(1 + len(data))
	l.mu.Lock()
	ts := l.clk.Now(cpu)
	l.buf[l.pos&l.mask] = uint64(event.MakeHeader(uint32(ts), int(n), major, minor))
	for i, d := range data {
		l.buf[(l.pos+1+uint64(i))&l.mask] = d
	}
	l.pos += n
	l.events++
	l.words += n
	l.mu.Unlock()
	return true
}

// Events implements Logger.
func (l *LockLogger) Events() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events
}

// WordsUsed implements Logger.
func (l *LockLogger) WordsUsed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.words
}

// Close implements Logger.
func (l *LockLogger) Close() {}

// --- PerCPULockLogger --------------------------------------------------------

// PerCPULockLogger gives each CPU its own buffer and its own lock: the
// cross-CPU cache-line sharing is gone, but every event still pays a lock
// acquire/release. Comparing it against both LockLogger and the lockless
// tracer separates the per-CPU-memory win from the lockless win.
type PerCPULockLogger struct {
	cpus []perCPULocked
	clk  clock.Source
}

type perCPULocked struct {
	mu     sync.Mutex
	buf    []uint64
	pos    uint64
	mask   uint64
	events uint64
	words  uint64
	_      [64]byte
}

// NewPerCPULockLogger creates a PerCPULockLogger with words entries per CPU.
func NewPerCPULockLogger(cpus, words int, clk clock.Source) *PerCPULockLogger {
	n := 1
	for n < words {
		n <<= 1
	}
	l := &PerCPULockLogger{cpus: make([]perCPULocked, cpus), clk: clk}
	for i := range l.cpus {
		l.cpus[i].buf = make([]uint64, n)
		l.cpus[i].mask = uint64(n - 1)
	}
	return l
}

// Name implements Logger.
func (l *PerCPULockLogger) Name() string { return "lock-percpu" }

// Log1 implements Logger.
func (l *PerCPULockLogger) Log1(cpu int, major event.Major, minor uint16, d0 uint64) bool {
	c := &l.cpus[cpu]
	c.mu.Lock()
	ts := l.clk.Now(cpu)
	c.buf[c.pos&c.mask] = uint64(event.MakeHeader(uint32(ts), 2, major, minor))
	c.buf[(c.pos+1)&c.mask] = d0
	c.pos += 2
	c.events++
	c.words += 2
	c.mu.Unlock()
	return true
}

// LogWords implements Logger.
func (l *PerCPULockLogger) LogWords(cpu int, major event.Major, minor uint16, data []uint64) bool {
	c := &l.cpus[cpu]
	n := uint64(1 + len(data))
	c.mu.Lock()
	ts := l.clk.Now(cpu)
	c.buf[c.pos&c.mask] = uint64(event.MakeHeader(uint32(ts), int(n), major, minor))
	for i, d := range data {
		c.buf[(c.pos+1+uint64(i))&c.mask] = d
	}
	c.pos += n
	c.events++
	c.words += n
	c.mu.Unlock()
	return true
}

// Events implements Logger.
func (l *PerCPULockLogger) Events() uint64 {
	var sum uint64
	for i := range l.cpus {
		l.cpus[i].mu.Lock()
		sum += l.cpus[i].events
		l.cpus[i].mu.Unlock()
	}
	return sum
}

// WordsUsed implements Logger.
func (l *PerCPULockLogger) WordsUsed() uint64 {
	var sum uint64
	for i := range l.cpus {
		l.cpus[i].mu.Lock()
		sum += l.cpus[i].words
		l.cpus[i].mu.Unlock()
	}
	return sum
}

// Close implements Logger.
func (l *PerCPULockLogger) Close() {}

// --- FixedLogger -------------------------------------------------------------

// FixedSlotWords is the slot size of the fixed-length scheme: header plus
// up to FixedSlotWords-2 payload words and a valid flag. Chosen to hold
// the paper's "very few events larger than 4 64-bit words" — bigger
// events do not fit and must be truncated, which is precisely the
// flexibility cost the variable-length design removes.
const FixedSlotWords = 8

// FixedLogger is the prior lockless scheme (IRIX-style): fixed-length
// slots claimed with an atomic fetch-add (fixed size is what makes plain
// fetch-add sufficient) and a valid bit written last. Every event consumes
// a full slot regardless of its real size.
type FixedLogger struct {
	clk    clock.Source
	cpus   []fixedCPU
	events atomic.Uint64
	trunc  atomic.Uint64
}

type fixedCPU struct {
	next  atomic.Uint64
	_     [56]byte
	buf   []uint64
	valid []atomic.Uint32
	mask  uint64 // slot index mask
}

// NewFixedLogger creates a FixedLogger with the given number of slots per
// CPU (rounded up to a power of two).
func NewFixedLogger(cpus, slots int, clk clock.Source) *FixedLogger {
	n := 1
	for n < slots {
		n <<= 1
	}
	l := &FixedLogger{clk: clk, cpus: make([]fixedCPU, cpus)}
	for i := range l.cpus {
		l.cpus[i].buf = make([]uint64, n*FixedSlotWords)
		l.cpus[i].valid = make([]atomic.Uint32, n)
		l.cpus[i].mask = uint64(n - 1)
	}
	return l
}

// Name implements Logger.
func (l *FixedLogger) Name() string { return "fixed-slots" }

// truncated returns how many events did not fit a slot intact.
func (l *FixedLogger) truncated() uint64 { return l.trunc.Load() }

// Log1 implements Logger.
func (l *FixedLogger) Log1(cpu int, major event.Major, minor uint16, d0 uint64) bool {
	c := &l.cpus[cpu]
	slotIdx := c.next.Add(1) - 1
	s := slotIdx & c.mask
	base := s * FixedSlotWords
	c.valid[s].Store(0)
	ts := l.clk.Now(cpu)
	c.buf[base] = uint64(event.MakeHeader(uint32(ts), 2, major, minor))
	c.buf[base+1] = d0
	c.valid[s].Store(1)
	l.events.Add(1)
	return true
}

// LogWords implements Logger.
func (l *FixedLogger) LogWords(cpu int, major event.Major, minor uint16, data []uint64) bool {
	c := &l.cpus[cpu]
	n := len(data)
	ok := true
	if n > FixedSlotWords-1 {
		n = FixedSlotWords - 1 // truncated: the fixed-length flexibility cost
		l.trunc.Add(1)
		ok = false
	}
	slotIdx := c.next.Add(1) - 1
	s := slotIdx & c.mask
	base := s * FixedSlotWords
	c.valid[s].Store(0)
	ts := l.clk.Now(cpu)
	c.buf[base] = uint64(event.MakeHeader(uint32(ts), 1+n, major, minor))
	copy(c.buf[base+1:base+1+uint64(n)], data[:n])
	c.valid[s].Store(1)
	l.events.Add(1)
	return ok
}

// Events implements Logger.
func (l *FixedLogger) Events() uint64 { return l.events.Load() }

// WordsUsed implements Logger: every event burns a whole slot.
func (l *FixedLogger) WordsUsed() uint64 { return l.events.Load() * FixedSlotWords }

// Close implements Logger.
func (l *FixedLogger) Close() {}

// --- SyscallLogger -----------------------------------------------------------

// SyscallLogger models tracing that "only allow[s] tracing via system
// calls": every event is marshalled and handed to a kernel goroutine over
// a channel, paying a control transfer per event. The kernel side logs
// into a lock logger (the combination found in the older systems).
type SyscallLogger struct {
	reqs   chan syscallReq
	done   chan struct{}
	sink   *LockLogger
	closed atomic.Bool
}

type syscallReq struct {
	cpu   int
	major event.Major
	minor uint16
	data  [4]uint64
	n     int
	reply chan struct{}
}

// NewSyscallLogger creates a SyscallLogger backed by a words-entry buffer.
func NewSyscallLogger(words int, clk clock.Source) *SyscallLogger {
	l := &SyscallLogger{
		reqs: make(chan syscallReq),
		done: make(chan struct{}),
		sink: NewLockLogger(words, clk),
	}
	go func() {
		defer close(l.done)
		for r := range l.reqs {
			l.sink.LogWords(r.cpu, r.major, r.minor, r.data[:r.n])
			r.reply <- struct{}{}
		}
	}()
	return l
}

// Name implements Logger.
func (l *SyscallLogger) Name() string { return "syscall" }

// Log1 implements Logger.
func (l *SyscallLogger) Log1(cpu int, major event.Major, minor uint16, d0 uint64) bool {
	r := syscallReq{cpu: cpu, major: major, minor: minor, n: 1,
		reply: make(chan struct{})}
	r.data[0] = d0
	l.reqs <- r
	<-r.reply // the "return from trap"
	return true
}

// LogWords implements Logger. Payloads beyond 4 words are clipped (the
// trap interface has a fixed argument area, as real ones did).
func (l *SyscallLogger) LogWords(cpu int, major event.Major, minor uint16, data []uint64) bool {
	r := syscallReq{cpu: cpu, major: major, minor: minor,
		reply: make(chan struct{})}
	r.n = copy(r.data[:], data)
	l.reqs <- r
	<-r.reply
	return r.n == len(data)
}

// Events implements Logger.
func (l *SyscallLogger) Events() uint64 { return l.sink.Events() }

// WordsUsed implements Logger.
func (l *SyscallLogger) WordsUsed() uint64 { return l.sink.WordsUsed() }

// Close implements Logger.
func (l *SyscallLogger) Close() {
	if !l.closed.Swap(true) {
		close(l.reqs)
		<-l.done
	}
}

// --- Lockless adapter ---------------------------------------------------------

// Lockless adapts the real per-CPU lockless tracer (internal/core) to the
// Logger interface for side-by-side benchmarking.
type Lockless struct {
	tr *core.Tracer
}

// NewLockless wraps a flight-recorder tracer with all majors enabled.
func NewLockless(cpus, bufWords, numBufs int, clk clock.Source) *Lockless {
	tr := core.MustNew(core.Config{
		CPUs: cpus, BufWords: bufWords, NumBufs: numBufs, Clock: clk,
	})
	tr.EnableAll()
	return &Lockless{tr: tr}
}

// Name implements Logger.
func (l *Lockless) Name() string { return "lockless-percpu" }

// Log1 implements Logger.
func (l *Lockless) Log1(cpu int, major event.Major, minor uint16, d0 uint64) bool {
	return l.tr.CPU(cpu).Log1(major, minor, d0)
}

// LogWords implements Logger.
func (l *Lockless) LogWords(cpu int, major event.Major, minor uint16, data []uint64) bool {
	return l.tr.CPU(cpu).LogWords(major, minor, data)
}

// Events implements Logger.
func (l *Lockless) Events() uint64 { return l.tr.Stats().Events }

// WordsUsed implements Logger.
func (l *Lockless) WordsUsed() uint64 {
	st := l.tr.Stats()
	return st.Words + st.FillerWords
}

// Close implements Logger.
func (l *Lockless) Close() {}
