package ksim

import "k42trace/internal/event"

// SimLock is a FIFO spin lock in virtual time, modeled after K42's
// FairBLock. Because the simulator executes operations in global time
// order, a lock reduces to its next-free time: an acquirer arriving
// earlier spins (burning its CPU's virtual time, counted in trips around
// the spin loop, the "spin" column of the lock tool) until the holder's
// release.
//
// Contended acquisitions log STARTWAIT/ACQUIRED events carrying the wait
// time, spin count, and the static call-chain ID of the acquisition site;
// releases log the hold time. The lock-contention analysis tool (§4.6)
// reconstructs Figure 7 entirely from these events.
type SimLock struct {
	id       uint64
	name     string
	nextFree uint64

	// Direct statistics, maintained alongside the trace events so unit
	// tests and quick reports need no trace pass.
	Acquisitions uint64
	Contended    uint64
	Spins        uint64
	TotalWaitNs  uint64
	MaxWaitNs    uint64
}

// newLock registers a lock with the kernel. IDs are offset to look like
// kernel addresses in listings.
func (k *Kernel) newLock(name string) *SimLock {
	l := &SimLock{id: 0xe1000000 + uint64(len(k.locks))*0x40, name: name}
	k.locks = append(k.locks, l)
	return l
}

// lockedSection acquires l on cpu c, performs cs ns of critical-section
// work attributed to ownerSym, and releases. chain identifies the static
// acquisition call chain for the contention events.
// Only contended acquisitions log events — K42 instrumented "contended
// lock paths", and Figure 7's count column is the number of times a lock
// was contended; the uncontended fast path stays event-free, which is what
// keeps full tracing cheap on a well-tuned system.
func (k *Kernel) lockedSection(c *SimCPU, l *SimLock, cs uint64, chain ChainID, ownerSym SymID) {
	t := c.now
	l.Acquisitions++
	contended := l.nextFree > t
	if contended {
		wait := l.nextFree - t
		spins := wait / k.costs.SpinCycle
		l.Contended++
		l.Spins += spins
		l.TotalWaitNs += wait
		if wait > l.MaxWaitNs {
			l.MaxWaitNs = wait
		}
		k.log(c, event.MajorLock, EvLockStartWait, l.id, uint64(chain))
		// Every trip around the spin loop re-fetches the holder's cache
		// line — the coherence traffic the hardware counters expose.
		c.chargeRemote(spins * remotePerSpin)
		// Spinning burns this CPU, attributed to the lock-acquire path —
		// which is why contended runs show FairBLock::_acquire() at the
		// top of the execution profile (Figure 6). Interrupt delivery is
		// suppressed for the spin so the FIFO hand-off stays tight; the
		// critical section below remains interruptible (that is where the
		// long-hold-time anecdote comes from).
		k.advanceQuiet(c, wait, k.sym.fairBLockAcquire)
		k.log(c, event.MajorLock, EvLockAcquired, l.id, wait, spins, uint64(chain))
	}
	start := c.now
	k.advance(c, cs, ownerSym)
	l.nextFree = c.now
	if contended {
		k.log(c, event.MajorLock, EvLockRelease, l.id, c.now-start)
	}
}
