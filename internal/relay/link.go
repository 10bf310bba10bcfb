// Link: the one way a block leaves a process. A Link is a stream.BlockSink
// over TCP that owns its connection. Every connection opens with a fresh
// stream header (collectors treat each connection as a self-contained
// stream); when a write fails the link drops the connection, backs off,
// redials and writes the same block again, so a block counts as delivered
// only once some connection accepted it — at-least-once, with the per-CPU
// sequence numbers letting a collector or the salvager drop the rare
// duplicate. What becomes of a block it could not deliver within
// MaxAttempts is the caller's decision, not the link's: see SendReliable
// and SendThrough for the two give-up policies.
package relay

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"k42trace/internal/stream"
)

// dialTimeout bounds each dial.
const dialTimeout = 2 * time.Second

// ReliableOptions tunes a Link and the senders built on it. Zero values
// get defaults.
type ReliableOptions struct {
	// Wrap is the transport-transform hook, as in SendThrough; it is
	// invoked once per dialed connection. If the writer it returns has a
	// Flush method, that is called before the connection closes.
	Wrap func(io.Writer) io.Writer
	// InitialBackoff is the first retry delay (default 50ms); each failed
	// attempt doubles it up to MaxBackoff (default 2s).
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// MaxAttempts bounds dial-plus-write attempts per block (default 8).
	// A block that exhausts them is the caller's to give up on: see
	// SendReliable and SendThrough for the two policies.
	MaxAttempts int
	// Resolve, if set, is consulted before every dial and overrides the
	// addr argument. This is the federation rebalance hook: a producer
	// resolves its collector through the aggregator's consistent-hash
	// ring, so when its shard dies, the very next reconnect attempt lands
	// on the shard the ring reassigned it to. A Resolve error counts as a
	// failed attempt (backoff, then retried), so a briefly unreachable
	// ring document does not burn the block.
	Resolve func() (string, error)
	// OnControl, if set, receives every control frame the collector writes
	// back down the connection (a reader goroutine is spawned per dialed
	// connection, so a new connection — including a reconnect — picks up
	// any pending mask the collector replays). Pair with MaskApplier to
	// let the collector retune the tracer at runtime.
	OnControl func(ControlFrame)
}

func (o *ReliableOptions) defaults() {
	if o.InitialBackoff <= 0 {
		o.InitialBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
}

// LinkStats counts what a Link did to deliver its blocks.
type LinkStats struct {
	Dials         uint64 `json:"dials"`          // successful dials (>= 1 reconnection when > 1)
	Retries       uint64 `json:"retries"`        // block writes retried after a connection died
	ControlFrames uint64 `json:"control_frames"` // control frames delivered to OnControl
}

// Link is a redialing block writer. WriteBlock, Connect and Close belong
// to one goroutine; Stats may be read from any.
type Link struct {
	addr string
	meta stream.Meta
	opt  ReliableOptions

	conn net.Conn
	w    io.Writer // conn, or what Wrap made of it
	wr   *stream.Writer

	dials, retries, ctrlFrames atomic.Uint64
}

// NewLink builds a link that will write blocks of the given geometry to
// addr. It does not dial: the first WriteBlock (or Connect) does.
func NewLink(addr string, meta stream.Meta, opt ReliableOptions) *Link {
	opt.defaults()
	return &Link{addr: addr, meta: meta, opt: opt}
}

// WriteBlock delivers one block, making up to MaxAttempts dial-plus-write
// attempts with backoff between them. On error the block was not
// delivered and the link is disconnected; the next call starts over.
func (l *Link) WriteBlock(h stream.BlockHeader, words []uint64) error {
	return l.attempt(&h, words)
}

// Connect establishes the connection ahead of the first block, under the
// same attempt budget: for a sender that must fail before touching its
// source, or whose connection is also a control path down.
func (l *Link) Connect() error { return l.attempt(nil, nil) }

func (l *Link) attempt(h *stream.BlockHeader, words []uint64) error {
	backoff := l.opt.InitialBackoff
	for attempt := 1; ; attempt++ {
		err := l.dial()
		if err == nil && h != nil {
			if err = l.wr.WriteBlock(*h, words); err != nil {
				l.Close()
				l.retries.Add(1)
			}
		}
		if err == nil {
			return nil
		}
		if attempt >= l.opt.MaxAttempts {
			return fmt.Errorf("relay: %s: attempt %d of %d failed: %w", l.addr, attempt, l.opt.MaxAttempts, err)
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, l.opt.MaxBackoff)
	}
}

// dial connects unless already connected: resolve, dial, wrap, stream
// header, control reader.
func (l *Link) dial() error {
	if l.wr != nil {
		return nil
	}
	target := l.addr
	if l.opt.Resolve != nil {
		var err error
		if target, err = l.opt.Resolve(); err != nil {
			return err
		}
	}
	c, err := net.DialTimeout("tcp", target, dialTimeout)
	if err != nil {
		return err
	}
	w := io.Writer(c)
	if l.opt.Wrap != nil {
		w = l.opt.Wrap(c)
	}
	wr, err := stream.NewWriter(w, l.meta)
	if err != nil {
		c.Close()
		return err
	}
	l.conn, l.w, l.wr = c, w, wr
	l.dials.Add(1)
	if l.opt.OnControl != nil {
		go readControls(c, l.opt.OnControl, &l.ctrlFrames)
	}
	return nil
}

// Close flushes what the wrapped writer still holds — a failed flush is
// reported, those blocks did not reach the collector — and closes the
// connection, which also ends its control reader.
func (l *Link) Close() error {
	if l.conn == nil {
		return nil
	}
	var err error
	if f, ok := l.w.(interface{ Flush() error }); ok {
		err = f.Flush()
	}
	l.conn.Close()
	l.conn, l.w, l.wr = nil, nil, nil
	return err
}

// Stats snapshots the counters.
func (l *Link) Stats() LinkStats {
	return LinkStats{
		Dials:         l.dials.Load(),
		Retries:       l.retries.Load(),
		ControlFrames: l.ctrlFrames.Load(),
	}
}

// SendThrough streams a tracer's sealed buffers to addr until the tracer
// is stopped: the producer side, dial and then drain onto the connection.
// wrap, if not nil, receives the dialed connection and returns the writer
// the blocks go into. It is the seam where fault injection (or
// compression, throttling, ...) plugs into the relay path without the
// tracer or the collector knowing. It is a Link with one attempt: a
// collector that cannot be dialed fails before the source is touched, and
// the first failed write ends the send.
func SendThrough(tr stream.Source, addr string, wrap func(io.Writer) io.Writer) (stream.CaptureStats, error) {
	l := NewLink(addr, stream.MetaOf(tr), ReliableOptions{Wrap: wrap, MaxAttempts: 1})
	if err := l.Connect(); err != nil {
		return stream.CaptureStats{}, err
	}
	st, err := stream.Drain(tr, l)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return st, err
}

// ReliableStats summarizes a SendReliable run: the blocks some connection
// accepted, what the link did to deliver them, and the blocks released
// unsent after giving up.
type ReliableStats struct {
	stream.CaptureStats
	LinkStats
	Dropped int
}

// SendReliable streams a source's sealed buffers to addr until the source
// is stopped, riding out collector restarts on a Link. Run it from its
// own goroutine, like SendThrough; it returns after the source's Sealed channel
// closes. The source is usually the in-process core.Tracer, but the shm
// daemon's Agent relays cross-process segments through the same path.
//
// Its give-up policy: when a block exhausts MaxAttempts, that block and
// every later sealed buffer are released unsent and counted in Dropped,
// so the traced workload (and its eventual Stop) never wedges on a full
// buffer ring; the error is returned once the source has stopped.
func SendReliable(tr stream.Source, addr string, opt ReliableOptions) (ReliableStats, error) {
	l := NewLink(addr, stream.MetaOf(tr), opt)
	cs, err := stream.Drain(tr, l)
	st := ReliableStats{CaptureStats: cs}
	if err != nil {
		st.Dropped++
		for s := range tr.Sealed() {
			tr.Release(s)
			st.Dropped++
		}
	}
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	st.LinkStats = l.Stats()
	return st, err
}
