// Package live is the engine behind tracecolld: a long-running collector
// that accepts many concurrent producers over the relay wire format and
// feeds every sealed block through incremental sliding-window analysis,
// realizing the paper's claim that "this event log may be examined while
// the system is running ... or streamed over the network" — for a whole
// cluster of traced systems at once, with bounded memory.
//
// Each producer gets a contiguous slice of the collector's CPU space, so
// events from different machines never collide in the per-CPU walker
// state; pids are deliberately not remapped (the per-process summary
// aggregates same-named workloads across producers, which is the fleet
// view an operator wants). Analysis and the optional raw-block spill are
// applied under one collector lock in arrival order, which makes the
// spill file an exact offline replica of what the live engine saw: the
// cumulative live overview of a drained session equals the offline
// Overview of the spilled .ktr, row for row.
package live

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"k42trace/internal/analysis"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/relay"
	"k42trace/internal/stream"
)

// Options configures a Collector. Zero values get defaults.
type Options struct {
	// Window is the analysis window width in trace time (default 250ms);
	// MaxWindows bounds how many are kept live (default 32). Older windows
	// are evicted, never accumulated — that is the memory bound.
	Window     time.Duration
	MaxWindows int
	// CPUSlots is the size of the collector's remapped CPU space (default
	// 256, max 65536 — the wire format's CPU field is 16 bits). Each
	// connection claims meta.CPUs slots: fresh ones while any are left,
	// then an exact-size slice a drained producer gave back, oldest first;
	// with neither, the producer is rejected ("cpu-slots"). A reused slice
	// puts two independent tracer clocks on one spill CPU id, which the
	// offline reader time-merges into an interleaving the collector never
	// saw: exact live-vs-offline parity holds until the fresh slots run out.
	CPUSlots int
	// WatchPids enables per-window time breakdowns for these processes.
	WatchPids []uint64
	// Spill, if set, receives every accepted block in trace-file format,
	// in arrival order with remapped CPU ids. The caller owns closing it.
	Spill io.Writer
}

func (o *Options) defaults() {
	if o.Window <= 0 {
		o.Window = 250 * time.Millisecond
	}
	if o.MaxWindows <= 0 {
		o.MaxWindows = 32
	}
	if o.CPUSlots <= 0 {
		o.CPUSlots = 256
	}
	if o.CPUSlots > 1<<16 {
		o.CPUSlots = 1 << 16
	}
}

// Collector ingests relay streams from many producers concurrently.
// Create with NewCollector, serve with relay.ListenConns(addr,
// c.Handler()), shut down with server CloseNow followed by c.Drain().
//
// A connection is one goroutine that reads a block, applies it, and only
// then reads the next, so it holds one word buffer and one event scratch.
// The socket is its queue: while an apply is slow the kernel's socket
// buffers fill, then the sender's own buffer ring, whose OnFull policy
// (block or drop) decides — the per-processor buffers the paper puts burst
// absorption in. A producer is never disconnected for being ahead.
type Collector struct {
	opt Options

	mu        sync.Mutex
	meta      stream.Meta // fixed by the first producer; CPUs == CPUSlots
	win       *analysis.Windowed
	spill     *stream.Writer
	spillErr  error
	nextCPU   int
	free      [][2]int // {base, n} CPU slices drained producers gave back
	producers map[uint64]*producer
	order     []uint64
	draining  bool
	// disconnects counts refused and ended connections by reason.
	disconnects map[string]uint64

	// Desired broadcast mask (SetMask with producerID 0); replayed to
	// producers that connect after it was set. maskSends counts control
	// frames successfully written to producers; it is atomic because
	// frames are written outside the collector lock (a producer that
	// stops draining its socket stalls only its own send, never ingest
	// or the HTTP surface).
	maskDesired uint64
	maskSet     bool
	maskSends   atomic.Uint64

	wg sync.WaitGroup // one count a connection, from register to exit
}

// producer is the per-connection ingest state. Counters are atomics so
// metrics rendering never blocks the ingest path.
type producer struct {
	id      uint64
	remote  string
	cpuBase int
	cpus    int
	ctrl    *relay.ControlSender

	connected atomic.Bool
	blocks    atomic.Uint64
	bytes     atomic.Uint64
	events    atomic.Uint64
	garbled   atomic.Uint64
	stuck     atomic.Uint64
	reordered atomic.Uint64
	lastTick  atomic.Uint64

	// Mask control plane: the last mask sent down this connection and the
	// newest mask the producer reported applied via CtrlMaskChange.
	sentMask    atomic.Uint64
	sentSet     atomic.Bool
	appliedMask atomic.Uint64
	appliedSet  atomic.Bool
	maskChanges atomic.Uint64

	lastSeq []int64 // per local CPU, -1 before the first block
}

// NewCollector builds a collector. The analysis engine and spill writer
// are created lazily when the first producer connects, because the
// window width in ticks and the spill metadata depend on the producers'
// clock rate and buffer size.
func NewCollector(opt Options) *Collector {
	opt.defaults()
	return &Collector{
		opt:         opt,
		producers:   map[uint64]*producer{},
		disconnects: map[string]uint64{},
	}
}

// Handler returns the connection handler to pass to relay.ListenConns.
func (c *Collector) Handler() relay.ConnHandler {
	return func(conn relay.Conn) error {
		p, pending, pendingSet, err := c.register(conn)
		if err != nil {
			return err
		}
		if pendingSet {
			// Pending-mask replay, off the collector lock: a producer
			// joining (or rejoining — reliable senders reconnect as a fresh
			// conn) an already-narrowed session is retuned before its first
			// block lands (serve has not started reading yet).
			c.sendMask(p, pending)
		}
		err = c.serve(p, conn.Stream)
		p.connected.Store(false)
		c.mu.Lock()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			// The server's drain grace ran out (relay.Server.CloseNow) on a
			// producer still sending: whatever it had not sent yet is cut.
			c.disconnects["drain-cut"]++
		} else if err != nil {
			c.disconnects["read-error"]++
		}
		// Every block this connection read is applied: nothing can land on
		// its CPU slice anymore, so it is safe to hand to the next
		// registrant.
		c.free = append(c.free, [2]int{p.cpuBase, p.cpus})
		c.mu.Unlock()
		c.wg.Done()
		return err
	}
}

// register admits one connection: validates its metadata against the
// session and claims a CPU slice. It returns the pending broadcast mask
// (if one is set) for the handler to replay after the lock is released —
// control frames are network writes and must not run under c.mu.
func (c *Collector) register(conn relay.Conn) (p *producer, pending uint64, pendingSet bool, err error) {
	meta := conn.Stream.Meta()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		c.disconnects["draining"]++
		return nil, 0, false, fmt.Errorf("live: collector draining, rejecting %v", conn.Remote)
	}
	if c.win == nil {
		// First producer fixes the session geometry. Window width converts
		// wall time to ticks at the producers' clock rate.
		ticks := uint64(c.opt.Window.Nanoseconds()) * meta.ClockHz / 1e9
		if ticks == 0 {
			ticks = 1
		}
		c.meta = stream.Meta{BufWords: meta.BufWords, CPUs: c.opt.CPUSlots, ClockHz: meta.ClockHz}
		c.win = analysis.NewWindowed(analysis.WindowConfig{
			WidthTicks: ticks,
			MaxWindows: c.opt.MaxWindows,
			WatchPids:  c.opt.WatchPids,
			Hz:         meta.ClockHz,
		})
		if c.opt.Spill != nil {
			wr, err := stream.NewWriter(c.opt.Spill, c.meta)
			if err != nil {
				c.win = nil
				return nil, 0, false, fmt.Errorf("live: opening spill: %w", err)
			}
			c.spill = wr
		}
	} else if meta.BufWords != c.meta.BufWords || meta.ClockHz != c.meta.ClockHz {
		c.disconnects["meta-mismatch"]++
		return nil, 0, false, fmt.Errorf("live: producer %v has bufWords=%d hz=%d, session has bufWords=%d hz=%d",
			conn.Remote, meta.BufWords, meta.ClockHz, c.meta.BufWords, c.meta.ClockHz)
	}
	base := -1
	if c.nextCPU+meta.CPUs <= c.opt.CPUSlots {
		// Fresh slots first: every producer incarnation gets CPU ids no
		// other stream has used, so the spill stays unambiguous and the
		// live overview equals the offline analysis of the spill exactly.
		base = c.nextCPU
		c.nextCPU += meta.CPUs
	} else {
		// Exhausted: fall back to an exact-size reclaimed slice, oldest
		// first, so churning producers — reconnecting senders, producers
		// rehashing between shards — cycle through a bounded slot space
		// instead of being refused.
		for i, f := range c.free {
			if f[1] == meta.CPUs {
				base = f[0]
				c.free = append(c.free[:i], c.free[i+1:]...)
				break
			}
		}
	}
	if base < 0 {
		c.disconnects["cpu-slots"]++
		return nil, 0, false, fmt.Errorf("live: out of CPU slots (%d used of %d, producer needs %d)",
			c.nextCPU, c.opt.CPUSlots, meta.CPUs)
	}
	p = &producer{
		id:      conn.ID,
		remote:  conn.Remote.String(),
		cpuBase: base,
		cpus:    meta.CPUs,
		ctrl:    conn.Control,
		lastSeq: make([]int64, meta.CPUs),
	}
	for i := range p.lastSeq {
		p.lastSeq[i] = -1
	}
	p.connected.Store(true)
	c.producers[p.id] = p
	c.order = append(c.order, p.id)
	c.wg.Add(1)
	return p, c.maskDesired, c.maskSet, nil
}

// serve is a producer's read loop: read the next block into the
// connection's one word buffer, account for it, and apply it before
// reading another, so a producer's blocks are applied in the order it sent
// them, which is all the per-CPU analysis needs. A refused block header is
// counted and skipped. It returns nil at the end of the stream and the
// read error otherwise.
func (c *Collector) serve(p *producer, bs *stream.BlockStream) error {
	g := bs.Meta().Geometry()
	buf := make([]uint64, bs.Meta().BufWords)
	var evs []event.Event
	var last uint64 // the newest event time; lastTick is its copy for snapshots
	for {
		h, words, err := bs.Next(buf)
		if err == io.EOF {
			return nil
		}
		var dmg *stream.BlockDamageError
		if errors.As(err, &dmg) {
			// The stride kept the stream aligned: count it and keep the
			// producer connected, the same resynchronization the offline
			// salvager performs.
			p.garbled.Add(1)
			p.bytes.Add(uint64(g.BlockBytes))
			continue
		}
		if err != nil {
			return err
		}
		p.bytes.Add(uint64(g.BlockBytes))
		if last := p.lastSeq[h.CPU]; last >= 0 && h.Seq <= uint64(last) {
			// Out-of-order or re-delivered sequence number (reordering
			// transports, at-least-once senders). Counted, not dropped: the
			// collector is a faithful recorder and the offline salvager owns
			// dedup, so spill and live analysis stay byte-equivalent.
			p.reordered.Add(1)
		} else {
			p.lastSeq[h.CPU] = int64(h.Seq)
		}
		if h.Anomalous() {
			p.stuck.Add(1)
		}
		p.blocks.Add(1)
		h.CPU += p.cpuBase
		// Decode outside the collector lock, so producers decode in
		// parallel and only the apply is serialized. The events never leave
		// the scratch: Feed reads them and keeps nothing, and the next
		// block overwrites them.
		var st core.DecodeStats
		evs, st = core.DecodeInto(evs[:0], h.CPU, words)
		if st.Garbled() {
			p.garbled.Add(1)
		}
		p.events.Add(uint64(len(evs)))
		for i := range evs {
			last = max(last, evs[i].Time)
			if evs[i].Major() == event.MajorControl && evs[i].Minor() == event.CtrlMaskChange &&
				len(evs[i].Data) >= 1 {
				p.appliedMask.Store(evs[i].Data[0])
				p.appliedSet.Store(true)
				p.maskChanges.Add(1)
			}
		}
		p.lastTick.Store(last)
		c.mu.Lock()
		if c.spill != nil {
			if err := c.spill.WriteBlock(h, words); err != nil {
				c.spillErr = err
				c.spill = nil
			}
		}
		c.win.Feed(evs)
		c.mu.Unlock()
	}
}

// Drain finishes a session: refuse new producers, wait for every
// connection's handler to apply the blocks it read and return, and report
// any spill error. Call it after the relay server has been closed
// (CloseNow reads each connection to its end, or cuts it at the drain
// grace, which ends its read loop).
func (c *Collector) Drain() error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spillErr
}

// ProducerSnapshot is one producer's state for /metrics and JSON.
type ProducerSnapshot struct {
	ID         uint64 `json:"id"`
	Remote     string `json:"remote"`
	CPUBase    int    `json:"cpu_base"`
	CPUs       int    `json:"cpus"`
	Connected  bool   `json:"connected"`
	Blocks     uint64 `json:"blocks"`
	Bytes      uint64 `json:"bytes"`
	Events     uint64 `json:"events"`
	Garbled    uint64 `json:"garbled_blocks"`
	StuckSeals uint64 `json:"stuck_seal_blocks"`
	Reordered  uint64 `json:"reordered_blocks"`
	LastTick   uint64 `json:"last_tick"`
	// LagWindows is how many analysis windows this producer's newest event
	// trails the newest event seen from anyone.
	LagWindows uint64 `json:"lag_windows"`
	// Mask control plane: hex literals, "" before the first send/apply.
	SentMask    string `json:"sent_mask,omitempty"`
	AppliedMask string `json:"applied_mask,omitempty"`
	MaskChanges uint64 `json:"mask_changes,omitempty"`
}

// Snapshot is the collector state served at /live/overview.
type Snapshot struct {
	ClockHz     uint64                 `json:"clock_hz"`
	WidthTicks  uint64                 `json:"window_ticks"`
	Stats       analysis.LiveStats     `json:"stats"`
	Overview    []analysis.ProcSummary `json:"overview"`
	Producers   []ProducerSnapshot     `json:"producers"`
	Disconnects map[string]uint64      `json:"disconnects"`
	Draining    bool                   `json:"draining"`
	// DesiredMask is the pending broadcast mask as a hex literal ("" if
	// never set); MaskEpochs are the newest mask-change markers seen in
	// the merged stream (collector CPU slots identify the producer).
	DesiredMask string               `json:"desired_mask,omitempty"`
	MaskSends   uint64               `json:"mask_updates_sent,omitempty"`
	MaskEpochs  []analysis.MaskEpoch `json:"mask_epochs,omitempty"`
}

// Snapshot captures the full collector state as plain data.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Disconnects: maps.Clone(c.disconnects),
		Draining:    c.draining,
	}
	if c.maskSet {
		s.DesiredMask = event.MaskString(c.maskDesired)
	}
	s.MaskSends = c.maskSends.Load()
	var maxTick, width uint64
	if c.win != nil {
		s.ClockHz = c.win.ClockHz()
		s.WidthTicks = c.win.WidthTicks()
		s.Stats = c.win.Stats()
		s.Overview = c.win.Overview()
		s.MaskEpochs = c.win.MaskEpochs()
		maxTick, width = s.Stats.MaxTick, s.WidthTicks
	}
	for _, id := range c.order {
		s.Producers = append(s.Producers, c.producers[id].snapshot(maxTick, width))
	}
	return s
}

func (p *producer) snapshot(maxTick, width uint64) ProducerSnapshot {
	ps := ProducerSnapshot{
		ID:          p.id,
		Remote:      p.remote,
		CPUBase:     p.cpuBase,
		CPUs:        p.cpus,
		Connected:   p.connected.Load(),
		Blocks:      p.blocks.Load(),
		Bytes:       p.bytes.Load(),
		Events:      p.events.Load(),
		Garbled:     p.garbled.Load(),
		StuckSeals:  p.stuck.Load(),
		Reordered:   p.reordered.Load(),
		LastTick:    p.lastTick.Load(),
		MaskChanges: p.maskChanges.Load(),
	}
	if p.sentSet.Load() {
		ps.SentMask = event.MaskString(p.sentMask.Load())
	}
	if p.appliedSet.Load() {
		ps.AppliedMask = event.MaskString(p.appliedMask.Load())
	}
	if width > 0 && maxTick > ps.LastTick {
		ps.LagWindows = (maxTick - ps.LastTick) / width
	}
	return ps
}

// Windows snapshots the live analysis windows, oldest first (empty
// before the first producer).
func (c *Collector) Windows() []analysis.WindowSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.win == nil {
		return nil
	}
	return c.win.Windows()
}
