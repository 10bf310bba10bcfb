package live

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/relay"
)

// TestSnapshotUnderChurn hammers every read surface of the collector —
// Prometheus metrics, JSON snapshot, overview, windows, mask status, and
// mask broadcasts — while producers connect, stream, and disconnect as
// fast as they can, so their CPU slices are given back and taken again.
// This is the churn of redialling senders and of producers rehashing
// between federation shards; the race detector pins the locking: no
// handler may observe a producer mid-remap.
func TestSnapshotUnderChurn(t *testing.T) {
	var spill bytes.Buffer
	c := NewCollector(Options{
		Window:     100 * time.Millisecond,
		MaxWindows: 4,
		CPUSlots:   8, // tight: churn must wrap into reclaimed slices
		Spill:      &spill,
	})
	srv, err := relay.ListenConns("127.0.0.1:0", c.Handler())
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Churn loop: short-lived producers connecting and disconnecting.
	const churners = 3
	for i := 0; i < churners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				tr := core.MustNew(core.Config{
					CPUs: 2, BufWords: 64, NumBufs: 4,
					Mode: core.Stream, Clock: clock.NewManual(1),
				})
				tr.EnableAll()
				done := make(chan struct{})
				go func() {
					defer close(done)
					relay.SendThrough(tr, srv.Addr(), nil)
				}()
				for k := 0; k < 200; k++ {
					tr.CPU(k%2).Log1(event.MajorTest, 1, uint64(i)<<32|uint64(k))
				}
				tr.Stop()
				<-done
			}
		}(i)
	}

	// Reader loops: every endpoint a dashboard or scraper would hit.
	readers := []func(){
		func() { c.WriteMetrics(io.Discard) },
		func() { _ = c.Snapshot() },
		func() { _ = c.Windows() },
		func() { _ = c.MaskStatus() },
		func() { _ = c.SetMask(event.MajorTest.Bit(), 0) },
	}
	for _, read := range readers {
		wg.Add(1)
		go func(read func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}(read)
	}

	time.Sleep(1 * time.Second)
	close(stop)
	wg.Wait()
	srv.Close()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if len(snap.Producers) < churners {
		t.Fatalf("churn registered only %d producers", len(snap.Producers))
	}
	// The tight slot space must actually have wrapped into reclaimed
	// slices, or the test did not exercise remap-under-read at all.
	seen := map[int]int{}
	for _, p := range snap.Producers {
		seen[p.CPUBase]++
	}
	reused := 0
	for _, n := range seen {
		if n > 1 {
			reused++
		}
	}
	if reused == 0 {
		t.Error("no CPU slot slice was ever reused; churn never exercised reclaim")
	}
}
