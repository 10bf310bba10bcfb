package store

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// AdmissionOptions bound the query scan pool. The observer must bound its
// own cost: without admission, one hot dashboard tenant fans enough
// concurrent scans to starve every other tenant's queries.
type AdmissionOptions struct {
	// MaxConcurrent is the global scan-pool size: queries holding a slot
	// at once, across all tenants. 0 with no TenantMax disables admission
	// control entirely; 0 with one sizes the pool to the scan parallelism
	// the box can deliver, 2×GOMAXPROCS, and at least TenantMax.
	MaxConcurrent int
	// TenantMax caps one tenant's concurrent slots (0 = MaxConcurrent).
	TenantMax int
	// TenantQueue bounds one tenant's wait queue; a query arriving with
	// the queue full is refused with ErrOverload (HTTP 429). 0 means no
	// queueing: overload rejects immediately.
	TenantQueue int
}

func (o *AdmissionOptions) tenantMax() int {
	if o.TenantMax <= 0 || o.TenantMax > o.MaxConcurrent {
		return o.MaxConcurrent
	}
	return o.TenantMax
}

// ErrOverload reports a query refused by admission control; RetryAfter is
// the server's estimate of when a slot will be free (the Retry-After
// header of the 429 reply).
type ErrOverload struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *ErrOverload) Error() string {
	return fmt.Sprintf("store: tenant %s query queue is full, retry after %s", e.Tenant, e.RetryAfter)
}

type admOutcome int

const (
	admImmediate admOutcome = iota
	admQueued
	admRejected
)

// admission is a weighted-fair semaphore over the scan pool: a global
// slot budget, a per-tenant concurrency cap, and per-tenant FIFO wait
// queues served round-robin — so a freed slot goes to the next *tenant*
// waiting, not the tenant with the most queued queries.
type admission struct {
	opt     AdmissionOptions
	metrics *Metrics

	mu      sync.Mutex
	free    int
	tenants map[string]*admTenant
	waiting []*admTenant // round-robin ring of tenants with waiters
	next    int          // ring cursor
	nwait   int
	service float64 // EWMA of slot-hold seconds, for Retry-After
}

type admTenant struct {
	name    string
	active  int
	waiters []*admWaiter
}

type admWaiter struct {
	ch       chan struct{}
	enq      time.Time
	canceled bool
}

// newAdmission returns nil when admission is disabled; every method is
// nil-safe.
func newAdmission(opt AdmissionOptions, metrics *Metrics) *admission {
	if opt.MaxConcurrent <= 0 && opt.TenantMax > 0 {
		opt.MaxConcurrent = max(2*runtime.GOMAXPROCS(0), opt.TenantMax)
	}
	if opt.MaxConcurrent <= 0 {
		return nil
	}
	return &admission{
		opt: opt, metrics: metrics,
		free:    opt.MaxConcurrent,
		tenants: map[string]*admTenant{},
	}
}

// acquire takes one scan slot for tenant, waiting in the tenant's queue
// if the pool is busy. It returns the release func, or ErrOverload when
// the tenant's queue is full. ctx cancellation abandons the wait.
func (a *admission) acquire(ctx context.Context, tenant string) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	a.mu.Lock()
	t := a.tenants[tenant]
	if t == nil {
		t = &admTenant{name: tenant}
		a.tenants[tenant] = t
	}
	if a.free > 0 && t.active < a.opt.tenantMax() && len(t.waiters) == 0 {
		a.free--
		t.active++
		a.mu.Unlock()
		a.metrics.admission(tenant, admImmediate, 0)
		return a.releaseFunc(t, time.Now()), nil
	}
	if len(t.waiters) >= a.opt.TenantQueue {
		retry := a.retryAfterLocked(t)
		a.mu.Unlock()
		a.metrics.admission(tenant, admRejected, 0)
		return nil, &ErrOverload{Tenant: tenant, RetryAfter: retry}
	}
	w := &admWaiter{ch: make(chan struct{}), enq: time.Now()}
	if len(t.waiters) == 0 {
		a.waiting = append(a.waiting, t)
	}
	t.waiters = append(t.waiters, w)
	a.nwait++
	a.mu.Unlock()

	select {
	case <-w.ch:
		waited := time.Since(w.enq)
		a.metrics.admission(tenant, admQueued, waited)
		return a.releaseFunc(t, time.Now()), nil
	case <-ctx.Done():
		a.mu.Lock()
		select {
		case <-w.ch:
			// The grant raced the cancel: the slot is ours, give it back.
			t.active--
			a.free++
			a.grantLocked()
		default:
			w.canceled = true
			a.nwait--
		}
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

// releaseFunc returns the slot and feeds the service-time EWMA.
func (a *admission) releaseFunc(t *admTenant, start time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			held := time.Since(start).Seconds()
			a.mu.Lock()
			const alpha = 0.2
			if a.service == 0 {
				a.service = held
			} else {
				a.service += alpha * (held - a.service)
			}
			t.active--
			a.free++
			a.grantLocked()
			a.mu.Unlock()
		})
	}
}

// grantLocked hands free slots to waiting tenants round-robin: each pass
// over the ring gives at most one slot per tenant, so a tenant with a
// deep queue cannot shut out a tenant with one waiter.
func (a *admission) grantLocked() {
	for a.free > 0 && len(a.waiting) > 0 {
		granted := false
		for scanned := 0; scanned < len(a.waiting) && a.free > 0; {
			if a.next >= len(a.waiting) {
				a.next = 0
			}
			t := a.waiting[a.next]
			// Drop canceled waiters from the head first.
			for len(t.waiters) > 0 && t.waiters[0].canceled {
				t.waiters = t.waiters[1:]
			}
			if len(t.waiters) == 0 {
				a.waiting = append(a.waiting[:a.next], a.waiting[a.next+1:]...)
				continue // ring shrank; same index now holds the next tenant
			}
			if t.active >= a.opt.tenantMax() {
				a.next++
				scanned++
				continue
			}
			w := t.waiters[0]
			t.waiters = t.waiters[1:]
			a.nwait--
			t.active++
			a.free--
			close(w.ch)
			granted = true
			if len(t.waiters) == 0 {
				a.waiting = append(a.waiting[:a.next], a.waiting[a.next+1:]...)
			} else {
				a.next++
			}
			scanned++
		}
		if !granted {
			return // every waiting tenant is at its per-tenant cap
		}
	}
}

// retryAfterLocked estimates when a slot frees for this tenant: the
// queries ahead of it, paced by the recent slot-hold time over the
// tenant's slot share. Clamped to [1s, 60s] so the header stays sane.
func (a *admission) retryAfterLocked(t *admTenant) time.Duration {
	ahead := float64(t.active + len(t.waiters) + 1)
	per := a.service
	if per == 0 {
		per = 0.1
	}
	est := time.Duration(ahead * per / float64(a.opt.tenantMax()) * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// stats reports live slot usage for the metrics page.
func (a *admission) stats() (active, waiting int) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.opt.MaxConcurrent - a.free, a.nwait
}
