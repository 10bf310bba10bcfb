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
	// QueueBlocks is the per-producer ingest queue depth (default
	// DefaultQueueBlocks). A connection holds at most QueueBlocks+2 word
	// buffers, so the depth is what a producer costs the collector in
	// memory. A deeper queue absorbs no burst the socket does not: past
	// it, the reader stops reading, the kernel's socket buffers fill, and
	// the sender's own buffer ring holds the rest — the per-processor
	// buffers the paper puts burst absorption in. EnqueueTimeout (default
	// 5s) is how long a producer's reader may wait on a full queue before
	// the producer is disconnected as too fast for the analysis to keep up
	// ("slow" in the disconnect counts, since it is the collector that is
	// slow).
	QueueBlocks    int
	EnqueueTimeout time.Duration
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

// DefaultQueueBlocks is the per-producer queue depth a zero
// Options.QueueBlocks gets, and tracecolld's -queue default. With one
// block at the worker and one at the reader, a connection makes at most
// six word buffers.
const DefaultQueueBlocks = 4

func (o *Options) defaults() {
	if o.Window <= 0 {
		o.Window = 250 * time.Millisecond
	}
	if o.MaxWindows <= 0 {
		o.MaxWindows = 32
	}
	if o.QueueBlocks <= 0 {
		o.QueueBlocks = DefaultQueueBlocks
	}
	if o.EnqueueTimeout <= 0 {
		o.EnqueueTimeout = 5 * time.Second
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

	// Desired broadcast mask (SetMask with producerID 0); replayed to
	// producers that connect after it was set. maskSends counts control
	// frames successfully written to producers; it is atomic because
	// frames are written outside the collector lock (a producer that
	// stops draining its socket stalls only its own send, never ingest
	// or the HTTP surface).
	maskDesired uint64
	maskSet     bool
	maskSends   atomic.Uint64

	// disconnects has its own lock so a wedged analysis path (mu held)
	// can never block recording the disconnect that resolves the wedge.
	dmu         sync.Mutex
	disconnects map[string]uint64

	wg sync.WaitGroup
}

// producer is the per-connection ingest state. Counters are atomics so
// metrics rendering never blocks the ingest path.
type producer struct {
	id      uint64
	remote  string
	cpuBase int
	cpus    int
	queue   chan feedItem
	// free is the connection's word buffers between blocks: the worker
	// puts a block's words here when it is done with them, the reader
	// takes its next buffer from here. QueueBlocks+2 slots, because that
	// is every buffer that can exist (a full queue, one block with the
	// worker, one with the reader). The worker drops the list when it
	// exits, so that a drained session holds no block. made counts the
	// buffers the reader has made; only the reader touches it.
	free chan []uint64
	made int
	ctrl *relay.ControlSender

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

// feedItem is one block in flight between a producer's reader and its
// worker. The reader owns words until the item is enqueued, the worker
// from then until the block is applied; then they go back to the
// producer's free list, and the reader reads a later block into them.
type feedItem struct {
	h     stream.BlockHeader // CPU already remapped into collector space
	words []uint64
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
		defer func() {
			p.connected.Store(false)
			close(p.queue)
		}()
		return c.serve(p, conn.Stream)
	}
}

// register admits one connection: validates its metadata against the
// session, claims a CPU slice, and starts its worker. It returns the
// pending broadcast mask (if one is set) for the handler to replay after
// the lock is released — control frames are network writes and must not
// run under c.mu.
func (c *Collector) register(conn relay.Conn) (p *producer, pending uint64, pendingSet bool, err error) {
	meta := conn.Stream.Meta()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		c.countDisconnect("draining")
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
		c.countDisconnect("meta-mismatch")
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
		c.countDisconnect("cpu-slots")
		return nil, 0, false, fmt.Errorf("live: out of CPU slots (%d used of %d, producer needs %d)",
			c.nextCPU, c.opt.CPUSlots, meta.CPUs)
	}
	p = &producer{
		id:      conn.ID,
		remote:  conn.Remote.String(),
		cpuBase: base,
		cpus:    meta.CPUs,
		queue:   make(chan feedItem, c.opt.QueueBlocks),
		free:    make(chan []uint64, c.opt.QueueBlocks+2),
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
	go c.worker(p)
	return p, c.maskDesired, c.maskSet, nil
}

// serve is a producer's read loop: take a word buffer off the free list
// (a new one of the stream's block size when every buffer is in flight),
// read the next block into it, account for the block, enqueue it for the
// worker. A buffer whose block was refused, or that ended the connection,
// goes back to the list. No event is decoded here.
func (c *Collector) serve(p *producer, bs *stream.BlockStream) error {
	g := bs.Meta().Geometry()
	var timer *time.Timer
	for {
		var buf []uint64
		select {
		case buf = <-p.free:
		default:
			buf = make([]uint64, bs.Meta().BufWords)
			p.made++
		}
		h, words, err := bs.Next(buf)
		if err != nil {
			p.free <- buf
		}
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
		if errors.Is(err, os.ErrDeadlineExceeded) {
			// The server's drain grace ran out (relay.Server.CloseNow) on a
			// producer still sending: whatever it had not sent yet is cut.
			c.countDisconnect("drain-cut")
			return err
		}
		if err != nil {
			c.countDisconnect("read-error")
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
		item := feedItem{h: h, words: words}
		select {
		case p.queue <- item:
		default:
			// A short queue is full often: one timer serves every wait.
			if timer == nil {
				timer = time.NewTimer(c.opt.EnqueueTimeout)
			} else {
				timer.Reset(c.opt.EnqueueTimeout)
			}
			select {
			case p.queue <- item:
				timer.Stop()
			case <-timer.C:
				p.free <- buf
				c.countDisconnect("slow")
				return fmt.Errorf("live: producer %d (%s) backlogged %v, disconnecting",
					p.id, p.remote, c.opt.EnqueueTimeout)
			}
		}
	}
}

// worker drains one producer's queue: it decodes each block into its one
// event scratch — outside the collector lock, so producers decode in
// parallel and only the apply is serialized — and applies spill and
// analysis under the lock. The events never leave it: Feed reads them and
// keeps nothing, and the next block overwrites them. It exits when the
// handler closes the queue, after draining whatever is left — so Drain
// never loses accepted blocks. Per-producer order is preserved (one worker
// per producer), which is all the per-CPU analysis needs.
func (c *Collector) worker(p *producer) {
	defer c.wg.Done()
	var evs []event.Event
	var last uint64 // the newest event time; lastTick is its copy for snapshots
	for it := range p.queue {
		var st core.DecodeStats
		evs, st = core.DecodeInto(evs[:0], it.h.CPU, it.words)
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
			if err := c.spill.WriteBlock(it.h, it.words); err != nil {
				c.spillErr = err
				c.spill = nil
			}
		}
		c.win.Feed(evs)
		c.mu.Unlock()
		p.free <- it.words
	}
	// The handler closed the queue after its reader returned: nobody takes
	// from the free list again.
	p.free = nil
	// The queue is closed and fully applied: nothing can land on this
	// producer's CPU slice anymore, so it is safe to hand to the next
	// registrant.
	c.mu.Lock()
	c.free = append(c.free, [2]int{p.cpuBase, p.cpus})
	c.mu.Unlock()
}

func (c *Collector) countDisconnect(reason string) {
	c.dmu.Lock()
	c.disconnects[reason]++
	c.dmu.Unlock()
}

// disconnectCounts copies the disconnect-reason counters.
func (c *Collector) disconnectCounts() map[string]uint64 {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	out := make(map[string]uint64, len(c.disconnects))
	for k, v := range c.disconnects {
		out[k] = v
	}
	return out
}

// Drain finishes a session: refuse new producers, wait for every
// producer worker to apply its remaining queued blocks, and report any
// spill error. Call it after the relay server has been closed (CloseNow
// reads each connection to its end, or cuts it at the drain grace, which
// ends its read loop and closes its queue).
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
	QueueDepth int    `json:"queue_depth"`
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
		Disconnects: c.disconnectCounts(),
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
		QueueDepth:  len(p.queue),
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
