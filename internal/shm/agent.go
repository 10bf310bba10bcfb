package shm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"k42trace/internal/clock"
	"k42trace/internal/core"
)

// An Agent is the daemon side of a segment — the reproduction of K42's
// trace daemon, which "is responsible for writing the data to disk"
// while applications log into the shared buffers. It creates and owns the
// segment, scans for buffers sealed by producer commits, seals buffers
// wedged by killed producers, reaps dead clients by pid liveness, and
// recycles drained slots. It satisfies stream.Source, so the same
// stream.Capture / relay.SendReliable paths that drain an in-process
// Tracer drain a cross-process segment unchanged.
type Agent struct {
	seg    *segment
	path   string
	arenas []*core.Arena
	sealed chan core.Sealed
	clk    clock.Source

	scanStop chan struct{}
	scanDone chan struct{}

	reaped   atomic.Uint64
	stopOnce sync.Once
}

// reapInterval bounds how long the agent sleeps on the doorbell before
// waking anyway to probe client liveness. Seal-driven work no longer
// waits on it — a producer's doorbell ring ends the sleep immediately —
// so it only sets dead-client detection latency, and can be far longer
// than the old 2ms drain poll while an idle segment costs ~zero CPU.
const reapInterval = 10 * time.Millisecond

// Create makes the segment file at path (tmpfs recommended), initializes
// it, publishes it for clients, and starts the scan loop. The mask starts
// fully open; restrict it with SetMask.
func Create(path string, g Geometry) (*Agent, error) {
	s, err := createSegment(path, g)
	if err != nil {
		return nil, err
	}
	now := uint64(time.Now().UnixNano())
	s.words[hdrClockHz] = 1e9
	s.words[hdrBaseUnixNano] = now
	s.words[hdrCreateNano] = now
	s.words[hdrBaseMonoNano] = uint64(nanotime())
	clk := segClock(s)
	lay := s.lay
	ag := &Agent{
		seg:      s,
		path:     path,
		arenas:   make([]*core.Arena, lay.geo.CPUs),
		sealed:   make(chan core.Sealed, lay.geo.CPUs*(lay.geo.NumBufs+1)),
		clk:      clk,
		scanStop: make(chan struct{}),
		scanDone: make(chan struct{}),
	}
	for cpu := range ag.arenas {
		a, err := buildArena(s, cpu, nil, nil, wordAtomic(s.words, hdrMask), nil, clk)
		if err != nil {
			s.close()
			return nil, err
		}
		ag.arenas[cpu] = a
	}
	wordAtomic(s.words, hdrMask).Store(^uint64(0))
	wordAtomic(s.words, hdrState).Store(segReady)
	go ag.scan()
	return ag, nil
}

// Path returns the segment file's path.
func (ag *Agent) Path() string { return ag.path }

// Geometry returns the segment's geometry.
func (ag *Agent) Geometry() Geometry { return ag.seg.lay.geo }

// --- stream.Source -----------------------------------------------------------

// Sealed delivers drained buffers; it closes when Stop finishes.
func (ag *Agent) Sealed() <-chan core.Sealed { return ag.sealed }

// Release recycles a drained buffer's slot for producers to reuse. The
// buffer is always zero-filled first: segments start zeroed (Truncate),
// so with zero-fill on release a reservation that was never written
// decodes as a hole of exactly its size — the basis of the salvager's
// exact loss accounting.
func (ag *Agent) Release(s core.Sealed) { ag.arenas[s.CPU].ReleaseSlot(s, true) }

// BufWords returns the buffer size in words.
func (ag *Agent) BufWords() int { return ag.seg.lay.geo.BufWords }

// NumCPUs returns the segment's processor-slot count.
func (ag *Agent) NumCPUs() int { return ag.seg.lay.geo.CPUs }

// Clock returns the segment clock.
func (ag *Agent) Clock() clock.Source { return ag.clk }

// --- mask control ------------------------------------------------------------

// SetMask stores a new global trace mask into the segment header and
// recomputes every attached client's effective mask (global AND its
// per-client override); every process's next entry-point check observes
// the result.
func (ag *Agent) SetMask(mask uint64) {
	wordAtomic(ag.seg.words, hdrMask).Store(mask)
	ag.refreshEffMasks()
}

// Mask returns the segment's current global trace mask.
func (ag *Agent) Mask() uint64 { return wordAtomic(ag.seg.words, hdrMask).Load() }

// SetClientMask narrows (or restores) one client slot's trace mask
// without touching anyone else: the effective mask its arenas gate on
// becomes the global mask AND this override. All-ones removes the
// restriction. This is the daemon-side throttle for a single misbehaving
// client — the other clients' hot paths are completely unaffected. The
// override belongs to the slot's current occupant; Attach resets it to
// all-ones when a new client claims the slot.
func (ag *Agent) SetClientMask(slot int, mask uint64) error {
	lay := ag.seg.lay
	if slot < 0 || slot >= lay.geo.MaxClients {
		return fmt.Errorf("shm: client slot %d out of range [0, %d)", slot, lay.geo.MaxClients)
	}
	wordAtomic(ag.seg.words, lay.clientWord(slot, clientMaskOverride)).Store(mask)
	wordAtomic(ag.seg.words, lay.clientWord(slot, clientMaskEff)).Store(ag.Mask() & mask)
	return nil
}

// ClientMask returns a client slot's override and effective masks.
func (ag *Agent) ClientMask(slot int) (override, eff uint64) {
	lay := ag.seg.lay
	return wordAtomic(ag.seg.words, lay.clientWord(slot, clientMaskOverride)).Load(),
		wordAtomic(ag.seg.words, lay.clientWord(slot, clientMaskEff)).Load()
}

// refreshEffMasks recomputes eff = hdrMask & override for every occupied
// slot. It also runs from reapDead on every scan pass, so a transient
// interleaving with a concurrent Attach (which initializes its own words
// after claiming the slot) self-heals within one reap interval.
func (ag *Agent) refreshEffMasks() {
	lay := ag.seg.lay
	base := ag.Mask()
	for slot := 0; slot < lay.geo.MaxClients; slot++ {
		pid := wordAtomic(ag.seg.words, lay.clientWord(slot, clientPid)).Load()
		if pid == 0 || pid == pidTombstone {
			continue
		}
		ov := wordAtomic(ag.seg.words, lay.clientWord(slot, clientMaskOverride)).Load()
		wordAtomic(ag.seg.words, lay.clientWord(slot, clientMaskEff)).Store(base & ov)
	}
}

func (ag *Agent) awaitQuiescence() {
	for spins := 0; ; spins++ {
		ag.reapDead()
		total := uint64(0)
		for _, a := range ag.arenas {
			total += a.InflightTotal()
		}
		if total == 0 {
			return
		}
		if spins < 64 {
			time.Sleep(10 * time.Microsecond)
		} else {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// --- scan loop ---------------------------------------------------------------

// scan is the agent's drain loop, driven by the doorbell eventcount
// instead of a fixed-interval poll. Each pass reaps and drains, snapshots
// the doorbell, announces the coming sleep in hdrAgentWait, re-reads the
// doorbell (the lost-wake guard: a producer that sealed between the drain
// and the announcement invalidates the snapshot, and one that seals after
// it sees hdrAgentWait set and issues the wake), and only then sleeps in
// futexWait. The reap-interval timeout bounds how stale pid liveness can
// get; Stop rings the doorbell to end the sleep immediately.
func (ag *Agent) scan() {
	defer close(ag.scanDone)
	bell := wordAtomic(ag.seg.words, hdrDoorbell)
	wait := wordAtomic(ag.seg.words, hdrAgentWait)
	fw := doorbellFutexWord(ag.seg.words)
	for {
		select {
		case <-ag.scanStop:
			return
		default:
		}
		ag.reapDead()
		ag.drainOnce()
		snap := bell.Load()
		wait.Store(1)
		if bell.Load() == snap {
			futexWait(fw, uint32(snap), reapInterval)
		}
		wait.Store(0)
	}
}

// drainOnce claims every sealed buffer the segment currently holds.
// TakePending picks up buffers the producers' own commits sealed;
// TakeStuck then seals completed-generation buffers whose commit count
// stalled short — the signature of a producer killed between reserve and
// commit (it refuses unless the in-flight total is zero, so a live
// straggler can never be misread as dead). The sealed channel's capacity
// covers one outstanding Sealed per slot plus a flush partial per CPU, so
// these sends cannot block a healthy consumer.
func (ag *Agent) drainOnce() {
	for _, a := range ag.arenas {
		for slot := 0; slot < a.NumBufs(); slot++ {
			if s, ok := a.TakePending(slot); ok {
				ag.sealed <- s
			}
		}
		for slot := 0; slot < a.NumBufs(); slot++ {
			if s, ok := a.TakeStuck(slot); ok {
				ag.sealed <- s
			}
		}
	}
}

// reapDead probes every attached client's pid and writes off the dead:
// tombstone the table entry, zero the client's in-flight row (its
// reservations will never commit; the stuck-buffer seal accounts for the
// words), then free the entry. The pid CAS keeps a concurrent Detach
// (which stores 0) from being resurrected into a tombstone. Live clients
// get their lease stamped (in the segment's lease timebase) and their
// effective mask recomputed, which is what makes per-client mask state
// self-healing against attach races.
func (ag *Agent) reapDead() {
	lay := ag.seg.lay
	now := ag.seg.leaseNow()
	base := ag.Mask()
	for slot := 0; slot < lay.geo.MaxClients; slot++ {
		pidW := wordAtomic(ag.seg.words, lay.clientWord(slot, clientPid))
		pid := pidW.Load()
		if pid == 0 || pid == pidTombstone {
			continue
		}
		if pidAlive(int(pid)) {
			wordAtomic(ag.seg.words, lay.clientWord(slot, clientLease)).Store(now)
			ov := wordAtomic(ag.seg.words, lay.clientWord(slot, clientMaskOverride)).Load()
			wordAtomic(ag.seg.words, lay.clientWord(slot, clientMaskEff)).Store(base & ov)
			continue
		}
		if !pidW.CompareAndSwap(pid, pidTombstone) {
			continue
		}
		for cpu := 0; cpu < lay.geo.CPUs; cpu++ {
			atomic.StoreUint64(&ag.seg.words[lay.inflightCell(slot, cpu)], 0)
		}
		pidW.Store(0)
		ag.reaped.Add(1)
	}
}

// pidAlive probes a pid with the null signal. ESRCH is the only "no such
// process"; EPERM means it exists but is not ours — still alive.
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	err := syscall.Kill(pid, 0)
	return err == nil || err != syscall.ESRCH
}

// Reaped returns how many dead clients have been written off.
func (ag *Agent) Reaped() uint64 { return ag.reaped.Load() }

// Stats returns the counters summed over all CPU slots.
func (ag *Agent) Stats() core.Stats {
	var sum core.Stats
	for _, a := range ag.arenas {
		sum = sum.Add(a.Stats())
	}
	return sum
}

// Stop shuts the segment down and drains everything left: mark the
// segment closing (full-ring waiters give up instead of waiting for
// releases that will never come), zero the mask, write off dead clients
// until every surviving in-flight logger has finished, then claim all
// pending and stuck buffers and flush the partial current ones. The
// Sealed channel closes once the last buffer is in it, which is what ends
// the consuming Capture/SendReliable. Call Close after the consumer
// finishes to unmap.
func (ag *Agent) Stop() {
	ag.stopOnce.Do(func() {
		wordAtomic(ag.seg.words, hdrState).Store(segClosing)
		ag.SetMask(0)
		close(ag.scanStop)
		ag.seg.ring() // pop the scan loop out of its futex sleep
		<-ag.scanDone
		ag.awaitQuiescence()
		ag.drainOnce()
		for _, a := range ag.arenas {
			a.FlushSlots(func(s core.Sealed) { ag.sealed <- s })
		}
		close(ag.sealed)
	})
}

// Close unmaps the segment (the file remains for post-mortem inspection;
// remove it separately if unwanted). Only call after the Sealed consumer
// is done — the mapping dies with it.
func (ag *Agent) Close() error { return ag.seg.close() }
