// Uplink: the shard-to-aggregator leg of the federation. A shard feeds
// the accepted blocks that carry mask markers (already remapped into its
// own CPU space) into the uplink, which relays them to the aggregator
// over the standard relay wire — the aggregator just sees one big
// producer whose "CPUs" are the shard's slot space. The connection doubles as the control path:
// mask frames the aggregator writes back down are surfaced via OnControl,
// which the shard turns into its own fan-out to real producers.
//
// An Uplink is a bounded queue in front of a relay.Link, which owns the
// connection, the redial and the control reader. The uplink must never
// wedge the shard: Feed is bounded (blocks that cannot be enqueued within
// EnqueueTimeout are dropped and counted), and its give-up policy for a
// block the link could not deliver within MaxAttempts is to count it
// dropped and go on with the next, so one long outage cannot absorb the
// whole queue behind an undeliverable head. Shard spills stay exact
// regardless; uplink loss only thins the aggregator's mask epochs, and
// the drop counters say by how much.
package fed

import (
	"sync"
	"sync/atomic"
	"time"

	"k42trace/internal/relay"
	"k42trace/internal/stream"
)

// UplinkOptions tunes an Uplink. Zero values get defaults.
type UplinkOptions struct {
	// QueueBlocks is the uplink send-queue depth (default 256 blocks);
	// EnqueueTimeout (default 2s) bounds how long Feed may wait on a full
	// queue before dropping the block.
	QueueBlocks    int
	EnqueueTimeout time.Duration
	// ReliableOptions tunes the link to the aggregator: backoff, attempts
	// per block, dial timeout, the Wrap transport seam, and OnControl for
	// the frames the aggregator writes back down the connection.
	relay.ReliableOptions
}

func (o *UplinkOptions) defaults() {
	if o.QueueBlocks <= 0 {
		o.QueueBlocks = 256
	}
	if o.EnqueueTimeout <= 0 {
		o.EnqueueTimeout = 2 * time.Second
	}
}

// UplinkStats summarizes an uplink's lifetime.
type UplinkStats struct {
	Blocks          uint64 `json:"blocks"` // blocks written to some connection
	relay.LinkStats        // dials, retries, control frames
	DroppedFull     uint64 `json:"dropped_full"`   // blocks dropped because the queue stayed full
	DroppedGaveUp   uint64 `json:"dropped_gaveup"` // blocks dropped after MaxAttempts
}

// queued is one block waiting in an Uplink's queue.
type queued struct {
	h     stream.BlockHeader
	words []uint64
}

// Uplink relays blocks from one shard to the aggregator.
type Uplink struct {
	addr string
	opt  UplinkOptions

	mu      sync.Mutex
	queue   chan queued
	feeding sync.WaitGroup // Feeds past the closed check; Close waits them out before closing queue
	link    *relay.Link    // set by Start
	closed  bool
	done    chan struct{}

	blocks      atomic.Uint64
	droppedFull atomic.Uint64
	droppedGave atomic.Uint64
}

// NewUplink builds an uplink to the aggregator's relay address. It is
// inert until Start fixes the stream geometry (the shard's session meta,
// known once its first producer connects).
func NewUplink(addr string, opt UplinkOptions) *Uplink {
	opt.defaults()
	return &Uplink{
		addr:  addr,
		opt:   opt,
		queue: make(chan queued, opt.QueueBlocks),
		done:  make(chan struct{}),
	}
}

// Start launches the relay loop with the shard's stream geometry.
// Idempotent; only the first call's meta is used.
func (u *Uplink) Start(meta stream.Meta) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.link != nil || u.closed {
		return
	}
	u.link = relay.NewLink(u.addr, meta, u.opt.ReliableOptions)
	go u.run(u.link)
}

// Feed enqueues one block for upward relay, copying words (callers reuse
// their buffers). It never blocks longer than EnqueueTimeout; an
// un-enqueueable block is dropped and counted in DroppedFull.
func (u *Uplink) Feed(h stream.BlockHeader, words []uint64) {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		u.droppedFull.Add(1)
		return
	}
	u.feeding.Add(1)
	u.mu.Unlock()
	defer u.feeding.Done()
	b := queued{h, append([]uint64(nil), words...)}
	select {
	case u.queue <- b:
		return
	default:
	}
	timer := time.NewTimer(u.opt.EnqueueTimeout)
	defer timer.Stop()
	select {
	case u.queue <- b:
	case <-timer.C:
		u.droppedFull.Add(1)
	}
}

// Close stops accepting blocks, waits for the queue to drain through the
// relay loop (delivery or give-up), and closes the connection. Safe to
// call at any time and more than once; a never-started uplink closes
// immediately.
func (u *Uplink) Close() {
	u.mu.Lock()
	first := !u.closed
	u.closed = true
	started := u.link != nil
	u.mu.Unlock()
	if first {
		// Every Feed that saw the uplink open registered under mu before
		// closed was set: once they have returned, nothing sends again.
		u.feeding.Wait()
		close(u.queue)
		if !started {
			close(u.done)
		}
	}
	<-u.done
}

// Stats snapshots the counters.
func (u *Uplink) Stats() UplinkStats {
	st := UplinkStats{
		Blocks:        u.blocks.Load(),
		DroppedFull:   u.droppedFull.Load(),
		DroppedGaveUp: u.droppedGave.Load(),
	}
	u.mu.Lock()
	l := u.link
	u.mu.Unlock()
	if l != nil {
		st.LinkStats = l.Stats()
	}
	return st
}

// run is the relay loop: one block at a time off the queue into the link.
// The first connection is established eagerly — the uplink is also the
// aggregator's control path down to this shard (mask fan-down rides the
// conn's back-channel), so it must exist before the first block has any
// reason to flow. If that fails, the first block redials.
func (u *Uplink) run(l *relay.Link) {
	defer close(u.done)
	defer l.Close()
	l.Connect()
	for b := range u.queue {
		if err := l.WriteBlock(b.h, b.words); err != nil {
			u.droppedGave.Add(1)
			continue
		}
		u.blocks.Add(1)
	}
}
