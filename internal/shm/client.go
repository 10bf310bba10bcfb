package shm

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"k42trace/internal/clock"
	"k42trace/internal/core"
)

// A Client is one process's attachment to a trace segment: the mapping,
// the client-table slot it claimed, and a core.Arena per CPU slot running
// the reserve/commit protocol directly on the shared words. After Attach,
// logging is plain stores into the mapping — no system call, no
// daemon round trip — which is the entire point of user-mapped buffers.
type Client struct {
	seg    *segment
	slot   int
	arenas []*core.Arena
	mask   *atomic.Uint64 // the word the arenas gate on: the client's eff mask
}

// Attach maps the segment at path and claims a client-table slot. It
// fails if no daemon has published the segment (state is not ready) or
// the client table is full.
func Attach(path string) (*Client, error) {
	s, err := openSegment(path, false)
	if err != nil {
		return nil, err
	}
	if st := s.state(); st != segReady {
		s.close()
		return nil, fmt.Errorf("shm: segment %s not accepting clients (state %s)", path, stateName(st))
	}
	lay := s.lay
	pid := uint64(os.Getpid())
	slot := -1
	for i := 0; i < lay.geo.MaxClients; i++ {
		if wordAtomic(s.words, lay.clientWord(i, clientPid)).CompareAndSwap(0, pid) {
			slot = i
			break
		}
	}
	if slot < 0 {
		s.close()
		return nil, fmt.Errorf("shm: segment %s: client table full (%d slots)", path, lay.geo.MaxClients)
	}
	now := s.leaseNow()
	wordAtomic(s.words, lay.clientWord(slot, clientRegNano)).Store(now)
	wordAtomic(s.words, lay.clientWord(slot, clientLease)).Store(now)
	// The daemon zeroes a reaped slot's in-flight row before freeing it,
	// but a new tenancy must never inherit a dirty row either way.
	for cpu := 0; cpu < lay.geo.CPUs; cpu++ {
		atomic.StoreUint64(&s.words[lay.inflightCell(slot, cpu)], 0)
	}
	// The client's arenas gate on its own effective mask (global AND
	// per-client override), so the daemon can narrow one client without
	// touching the rest; initialize both words for the new tenancy (the
	// daemon's scan self-heals any interleaving with a concurrent
	// SetMask). Sealing commits ring the drain doorbell.
	maskW := wordAtomic(s.words, lay.clientWord(slot, clientMaskEff))
	wordAtomic(s.words, lay.clientWord(slot, clientMaskOverride)).Store(^uint64(0))
	maskW.Store(wordAtomic(s.words, hdrMask).Load())
	onSeal := func(core.Sealed) { s.ring() }
	c := &Client{seg: s, slot: slot, arenas: make([]*core.Arena, lay.geo.CPUs), mask: maskW}
	clk := segClock(s)
	for cpu := range c.arenas {
		a, err := buildArena(s, cpu, &s.words[lay.inflightCell(slot, cpu)], clientOnFull(s), maskW, onSeal, clk)
		if err != nil {
			c.free()
			return nil, err
		}
		c.arenas[cpu] = a
	}
	return c, nil
}

// buildArena constructs the Arena view of one CPU slot of a mapped
// segment. inflight selects the in-flight word this context bumps (a
// client's private matrix cell; nil for the daemon, which never logs);
// InflightTotal always sums the whole matrix column, so every context
// agrees on quiescence no matter which cell each producer uses. mask is
// the gating word (the global header mask, or a client's effective
// mask); onSeal fires on sealing commits (the client's doorbell ring)
// and may be nil.
func buildArena(s *segment, cpu int, inflight *uint64, onFull func() bool,
	mask *atomic.Uint64, onSeal func(core.Sealed), clk clock.Source) (*core.Arena, error) {
	lay := s.lay
	ctlLo, ctlHi := lay.ctlRegion(cpu)
	bufLo, bufHi := lay.bufRegion(cpu)
	return core.NewArena(core.ArenaConfig{
		Ctl:      s.words[ctlLo:ctlHi],
		Buf:      s.words[bufLo:bufHi],
		Mask:     mask,
		Clock:    clk,
		OnSeal:   onSeal,
		CPU:      cpu,
		BufWords: lay.geo.BufWords,
		NumBufs:  lay.geo.NumBufs,
		Stream:   true,
		Inflight: inflight,
		InflightTotal: func() uint64 {
			var n uint64
			for cl := 0; cl < lay.geo.MaxClients; cl++ {
				n += atomic.LoadUint64(&s.words[lay.inflightCell(cl, cpu)])
			}
			return n
		},
		OnFull: onFull,
	})
}

// clientOnFull is the client-side Block policy: the ring is full, so back
// off until the daemon releases a buffer — the doorbell already rang when
// the ring's last buffer sealed, so the daemon is on its way and a short
// sleep beats spinning — unless the daemon is shutting down, in which
// case block-forever would deadlock and the event is dropped instead.
func clientOnFull(s *segment) func() bool {
	return func() bool {
		if s.state() == segClosing {
			return false
		}
		runtime.Gosched()
		time.Sleep(20 * time.Microsecond)
		return true
	}
}

func stateName(st uint64) string {
	switch st {
	case segCreating:
		return "creating"
	case segReady:
		return "ready"
	case segClosing:
		return "closing"
	}
	return fmt.Sprintf("?%d", st)
}

// NumCPUs returns the segment's processor-slot count.
func (c *Client) NumCPUs() int { return len(c.arenas) }

// Slot returns the client-table slot this attachment claimed.
func (c *Client) Slot() int { return c.slot }

// CPU returns the logging handle for one processor slot: the handle a
// Tracer hands out, over the shared words instead of private memory.
func (c *Client) CPU(i int) core.CPU { return c.arenas[i].Handle() }

// Detach waits for this process's in-flight logging calls to finish,
// releases the client-table slot, and unmaps the segment. The segment
// itself lives on: detaching is leaving the room, not turning off the
// lights.
func (c *Client) Detach() error {
	lay := c.seg.lay
	for cpu := 0; cpu < lay.geo.CPUs; cpu++ {
		cell := &c.seg.words[lay.inflightCell(c.slot, cpu)]
		for spins := 0; atomic.LoadUint64(cell) != 0; spins++ {
			if spins < 64 {
				runtime.Gosched()
			} else {
				time.Sleep(time.Microsecond)
			}
		}
	}
	return c.free()
}

func (c *Client) free() error {
	wordAtomic(c.seg.words, c.seg.lay.clientWord(c.slot, clientPid)).Store(0)
	return c.seg.close()
}
