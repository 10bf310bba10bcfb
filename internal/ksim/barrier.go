package ksim

import "k42trace/internal/event"

// Barrier is a synchronization barrier for a group of simulated processes
// — the coordination primitive of the paper's other workload class,
// "large scientific applications running one thread per processor"
// (§3.1). Processes arriving early block (their CPU idles or runs other
// work); the last arrival releases everyone at its time.
type Barrier struct {
	id      uint64
	n       int
	waiting []*Thread
	// Generations allow reuse across iterations.
	generation uint64
}

// Barrier event minors under MajorSched.
const (
	EvBarrierWait    uint16 = 6 // pid, barrier id
	EvBarrierRelease uint16 = 7 // barrier id, group size
)

func init() {
	event.Default.MustRegister(event.MajorSched, EvBarrierWait, "TRC_SCHED_BARRIER_WAIT",
		"64 64", "pid %0[%lld] waits at barrier %1[%lld]")
	event.Default.MustRegister(event.MajorSched, EvBarrierRelease, "TRC_SCHED_BARRIER_RELEASE",
		"64 64", "barrier %0[%lld] releases %1[%lld] processes")
}

// NewBarrier creates a barrier for groups of n processes. Create barriers
// before Run and reference them from OpBarrier ops.
func (k *Kernel) NewBarrier(n int) *Barrier {
	b := &Barrier{id: uint64(len(k.barriers)) + 1, n: n}
	k.barriers = append(k.barriers, b)
	return b
}

// arrive handles thread p reaching barrier b on CPU c. It returns true if
// p blocks (the caller must deschedule it); the last arrival releases the
// group and continues.
func (k *Kernel) arrive(c *SimCPU, b *Barrier, p *Thread) (blocked bool) {
	k.log(c, event.MajorSched, EvBarrierWait, p.pid(), b.id)
	if len(b.waiting)+1 < b.n {
		b.waiting = append(b.waiting, p)
		return true
	}
	// Last arrival: release the group at this CPU's time.
	b.generation++
	k.log(c, event.MajorSched, EvBarrierRelease, b.id, uint64(b.n))
	for _, q := range b.waiting {
		k.enqueue(c, q, false)
	}
	b.waiting = b.waiting[:0]
	return false
}
