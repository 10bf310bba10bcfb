package store

import (
	"context"
	"errors"
	"testing"
	"time"
)

// waitForWaiters polls the semaphore until n queries are queued.
func waitForWaiters(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, waiting := a.stats(); waiting == n {
			return
		}
		if time.Now().After(deadline) {
			_, waiting := a.stats()
			t.Fatalf("never reached %d waiters (at %d)", n, waiting)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionOverload: with the pool held and no queue, a query is
// refused with ErrOverload carrying a sane Retry-After, and admission
// recovers as soon as the slot frees.
func TestAdmissionOverload(t *testing.T) {
	data := sdetSmall(t, 3)
	s := openStore(t, Options{Workers: 2,
		Admission: AdmissionOptions{MaxConcurrent: 1, TenantMax: 1, TenantQueue: 0}})
	ingestBytes(t, s, "acme", data)

	release, err := s.adm.acquire(context.Background(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Query(Params{Tenant: "acme"})
	var ov *ErrOverload
	if !errors.As(err, &ov) {
		t.Fatalf("query with the pool held returned %v, want ErrOverload", err)
	}
	if ov.Tenant != "acme" {
		t.Fatalf("overload names tenant %q", ov.Tenant)
	}
	if ov.RetryAfter < time.Second || ov.RetryAfter > time.Minute {
		t.Fatalf("Retry-After %v outside [1s, 1m]", ov.RetryAfter)
	}
	release()
	release() // idempotent: a double release must not mint a slot
	if _, err := s.Query(Params{Tenant: "acme"}); err != nil {
		t.Fatalf("query after release: %v", err)
	}
	if active, waiting := s.adm.stats(); active != 0 || waiting != 0 {
		t.Fatalf("slots leaked: active=%d waiting=%d", active, waiting)
	}
}

// TestTenantCapAloneAdmits: a per-tenant cap with no global pool still
// turns admission on — the pool is sized for it — so a tenant at its cap
// with no queue is refused its next query.
func TestTenantCapAloneAdmits(t *testing.T) {
	data := sdetSmall(t, 3)
	s := openStore(t, Options{Workers: 2, Admission: AdmissionOptions{TenantMax: 1, TenantQueue: 0}})
	ingestBytes(t, s, "acme", data)

	release, err := s.adm.acquire(context.Background(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Query(Params{Tenant: "acme"})
	if ov := new(ErrOverload); !errors.As(err, &ov) {
		t.Fatalf("second query with the tenant at its cap returned %v, want ErrOverload", err)
	}
	release()
	if _, err := s.Query(Params{Tenant: "acme"}); err != nil {
		t.Fatalf("query after release: %v", err)
	}
}

// TestAdmissionRoundRobinFairness: tenant b with one waiter must not be
// starved behind tenant a's deeper queue — freed slots alternate across
// waiting tenants, not FIFO across all waiters.
func TestAdmissionRoundRobinFairness(t *testing.T) {
	var m Metrics
	m.init()
	a := newAdmission(AdmissionOptions{MaxConcurrent: 2, TenantMax: 2, TenantQueue: 4}, &m)

	ctx := context.Background()
	relA1, err := a.acquire(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	relA2, err := a.acquire(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}

	// Enqueue a, a, then b; grants hold their slot until the test ends,
	// so each release hands exactly one waiter a slot.
	order := make(chan string, 3)
	hold := make(chan struct{})
	spawn := func(tenant string, want int) {
		go func() {
			rel, err := a.acquire(ctx, tenant)
			if err != nil {
				t.Errorf("queued acquire(%s): %v", tenant, err)
				return
			}
			order <- tenant
			<-hold
			rel()
		}()
		waitForWaiters(t, a, want)
	}
	spawn("a", 1)
	spawn("a", 2)
	spawn("b", 3)

	relA1()
	relA2()
	first, second := <-order, <-order
	if !(first == "a" && second == "b" || first == "b" && second == "a") {
		t.Fatalf("first two grants went to %s, %s; round-robin owes one to each tenant", first, second)
	}
	close(hold)
	if third := <-order; third != "a" {
		t.Fatalf("final grant went to %s, want a's second waiter", third)
	}
	waitForWaiters(t, a, 0)
}

// TestAdmissionCancel: a canceled wait leaves the queue and never takes
// a slot; the tenant's later queries are unaffected.
func TestAdmissionCancel(t *testing.T) {
	var m Metrics
	m.init()
	a := newAdmission(AdmissionOptions{MaxConcurrent: 1, TenantMax: 1, TenantQueue: 4}, &m)

	rel, err := a.acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx, "a")
		errc <- err
	}()
	waitForWaiters(t, a, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait returned %v", err)
	}
	waitForWaiters(t, a, 0)

	rel()
	rel2, err := a.acquire(context.Background(), "a")
	if err != nil {
		t.Fatalf("acquire after cancel: %v", err)
	}
	rel2()
	if active, waiting := a.stats(); active != 0 || waiting != 0 {
		t.Fatalf("slots leaked after cancel: active=%d waiting=%d", active, waiting)
	}
}

// TestAdmissionDisabled: the zero Options value means no admission —
// acquire never blocks and never errors.
func TestAdmissionDisabled(t *testing.T) {
	var a *admission = newAdmission(AdmissionOptions{}, nil)
	for i := 0; i < 100; i++ {
		rel, err := a.acquire(context.Background(), "any")
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	if active, waiting := a.stats(); active != 0 || waiting != 0 {
		t.Fatal("disabled admission reports usage")
	}
}
