package fed

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/faultinject"
	"k42trace/internal/live"
	"k42trace/internal/relay"
	"k42trace/internal/stream"
)

// wireBlock is one wire (or spilled) block as a comparable value.
type wireBlock struct {
	h     stream.BlockHeader
	words []uint64
}

// parseWire reads every parseable block out of raw wire bytes exactly the
// way a collector does: damaged blocks are skipped, a torn tail ends the
// stream. It is the ground truth for "what this connection delivered".
func parseWire(t *testing.T, raw []byte) []wireBlock {
	t.Helper()
	if len(raw) == 0 {
		return nil
	}
	bs, err := stream.NewBlockStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out []wireBlock
	for {
		h, words, err := bs.Next(nil)
		if err == io.EOF {
			return out
		}
		var dmg *stream.BlockDamageError
		if errors.As(err, &dmg) {
			continue
		}
		if err != nil {
			return out
		}
		out = append(out, wireBlock{h: h, words: append([]uint64(nil), words...)})
	}
}

// chaosDial records one dialed connection of a chaos producer: the shard
// the ring resolved at dial time, and a tee of the post-fault bytes that
// actually traveled to it.
type chaosDial struct {
	target string
	tee    bytes.Buffer
}

type chaosResult struct {
	stats relay.ReliableStats
	dials []*chaosDial
}

// chaosProducer streams tagged test events into the federation through a
// fault injector, resolving its shard through the aggregator's ring on
// every dial. Between its two event phases it narrows its mask to
// MajorTest, so every shard it reaches sees mask epochs too. When
// gate is non-nil it pauses there so the test can kill and replace a
// shard mid-run. Resolve, Wrap, and the
// dial loop all run in the single SendReliable goroutine, so pairing the
// last resolved target with the next Wrap call needs no locking; the
// result channel hand-off publishes the dial records to the caller.
func chaosProducer(t *testing.T, aggURL, key string, idx int, gate <-chan struct{}) chaosResult {
	t.Helper()
	tr := core.MustNew(core.Config{
		CPUs: 2, BufWords: 64, NumBufs: 8,
		Mode: core.Stream, Clock: clock.NewManual(1),
	})
	tr.EnableAll()
	base := RingResolver(aggURL, key)
	var dials []*chaosDial
	var cur string
	done := make(chan relay.ReliableStats, 1)
	go func() {
		st, err := relay.SendReliable(tr, "fed", relay.ReliableOptions{
			Resolve: func() (string, error) {
				a, err := base()
				if err == nil {
					cur = a
				}
				return a, err
			},
			Wrap: func(w io.Writer) io.Writer {
				d := &chaosDial{target: cur}
				dials = append(dials, d)
				return faultinject.NewInjector(io.MultiWriter(w, &d.tee), faultinject.StreamFaults{
					Seed:          int64(5000 + idx),
					DropProb:      0.05,
					DupProb:       0.08,
					ReorderWindow: 3,
					FlipProb:      0.10,
				})
			},
			// The dead-shard window lasts until a ring read past the TTL
			// expires the shard; back off fast and keep trying well past it.
			InitialBackoff: 10 * time.Millisecond,
			MaxBackoff:     100 * time.Millisecond,
			MaxAttempts:    1000,
		})
		if err != nil {
			t.Errorf("producer %s: %v", key, err)
		}
		done <- st
	}()
	logPhase := func(from, to int) {
		for k := from; k < to; k++ {
			// Tag every event with (producer, counter) so blocks are globally
			// unique and wire-vs-spill matching is content-checkable.
			tr.CPU(k%2).Log1(event.MajorTest, 1, uint64(idx)<<32|uint64(k))
		}
	}
	logPhase(0, 600)
	tr.ApplyMask(event.MajorTest.Bit())
	if gate != nil {
		<-gate
	}
	logPhase(600, 1200)
	tr.Stop()
	st := <-done
	return chaosResult{stats: st, dials: dials}
}

// spillGroups splits a shard's spill into per-registration block groups,
// keyed by CPU slot base with the remap stripped, so each group compares
// directly against the wire bytes of the connection that produced it.
func spillGroups(t *testing.T, ts *testShard) map[int][]wireBlock {
	t.Helper()
	snap := ts.c.Snapshot()
	out := map[int][]wireBlock{}
	if ts.spill.Len() == 0 {
		return out
	}
	bs, err := stream.NewBlockStream(bytes.NewReader(ts.spill.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for {
		h, words, err := bs.Next(nil)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		base := -1
		for _, p := range snap.Producers {
			if h.CPU >= p.CPUBase && h.CPU < p.CPUBase+p.CPUs {
				base = p.CPUBase
			}
		}
		if base < 0 {
			t.Fatalf("spill block on unmapped CPU %d", h.CPU)
		}
		h.CPU -= base
		out[base] = append(out[base], wireBlock{h: h, words: append([]uint64(nil), words...)})
	}
}

// TestChaosSoakFederation is the federation's chaos soak: 3 shards ingest
// 12 producers through drop/dup/reorder/flip fault injectors on the
// producer→shard hop, one shard is killed mid-run
// without a goodbye and later rejoins under the same name on a new
// address, and a second wave of producers lands on the rejoined member.
// The correctness bar is byte-exact: every surviving connection's spill
// group must equal the parse of the exact post-fault bytes it was sent,
// the killed shard's groups must be prefixes of theirs, and the missing
// suffix blocks must account exactly for the federation-wide difference
// between wire and spill totals.
func TestChaosSoakFederation(t *testing.T) {
	agg := startAgg(t, AggOptions{
		// Long enough that a loaded-but-alive shard's heartbeat goroutine
		// never starves past it under the race detector, short enough that
		// the killed shard expires well inside the waitFor deadline.
		MemberTTL: 1500 * time.Millisecond,
	})
	mkShard := func(name string) *testShard {
		return startShard(t, agg, name, live.Options{Window: 500 * time.Millisecond, MaxWindows: 4, CPUSlots: 64})
	}
	names := []string{"c0", "c1", "c2"}
	byAddr := map[string]*testShard{}
	nameOf := map[string]string{}
	var shards []*testShard
	for _, n := range names {
		ts := mkShard(n)
		shards = append(shards, ts)
		byAddr[ts.srv.Addr()] = ts
		nameOf[ts.srv.Addr()] = n
	}
	waitFor(t, "all shards on the ring", func() bool {
		return len(agg.a.ms.Doc().Members) == 3
	})

	// Wave 1: 8 producers, at least 2 pinned to every shard, paused at the
	// gate between their two event phases.
	doc := agg.a.ms.Doc()
	keys := pickKeys(t, doc, "w1-", 2)
	keys = append(keys, "w1x-0", "w1x-1")
	killedAddr, _ := doc.Owner(keys[0])
	killed := byAddr[killedAddr]
	gate := make(chan struct{})
	const producers = 12
	results := make([]chaosResult, producers)
	var wg sync.WaitGroup
	launch := func(i int, key string, g <-chan struct{}) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = chaosProducer(t, agg.web.URL, key, i, g)
		}()
	}
	for i, key := range keys {
		launch(i, key, gate)
	}

	// Kill one shard while it is ingesting: no leaving heartbeat, listener
	// severed with conns open — the aggregator only learns via TTL expiry.
	waitFor(t, "killed shard ingesting", func() bool {
		snap := killed.c.Snapshot()
		var blocks uint64
		for _, p := range snap.Producers {
			blocks += p.Blocks
		}
		return len(snap.Producers) >= 2 && blocks >= 10
	})
	killed.srv.CloseNow()
	if err := killed.s.kill(); err != nil {
		t.Errorf("kill: %v", err)
	}
	waitFor(t, "killed shard to expire off the ring", func() bool {
		d := agg.a.ms.Doc()
		if len(d.Members) != 2 {
			return false
		}
		for _, m := range d.Members {
			if m == killedAddr {
				return false
			}
		}
		return true
	})

	// Rejoin under the same name on a fresh address, then release the
	// paused producers: any whose shard died rehash over to a survivor.
	reborn := mkShard(nameOf[killedAddr])
	byAddr[reborn.srv.Addr()] = reborn
	waitFor(t, "rejoined shard on the ring", func() bool {
		d := agg.a.ms.Doc()
		if len(d.Members) != 3 {
			return false
		}
		for _, m := range d.Members {
			if m == reborn.srv.Addr() {
				return true
			}
		}
		return false
	})
	// Wave 2: 4 more producers against the rebuilt ring, at least one
	// pinned to the rejoined member. Keys are chosen from the quiescent
	// ring BEFORE the gate opens: under load a live shard's heartbeat can
	// transiently lag, and key selection must not race that.
	doc2 := agg.a.ms.Doc()
	w2keys := pickKeys(t, doc2, "w2-", 1)
	for i := 0; ; i++ {
		key := fmt.Sprintf("w2x-%d", i)
		if owner, _ := doc2.Owner(key); owner == reborn.srv.Addr() {
			w2keys = append(w2keys, key)
			break
		}
		if i > 100000 {
			t.Fatal("no key hashing to the rejoined shard")
		}
	}
	close(gate)
	for i, key := range w2keys {
		launch(8+i, key, nil)
	}
	wg.Wait()

	liveShards := []*testShard{}
	for _, ts := range shards {
		if ts != killed {
			liveShards = append(liveShards, ts)
		}
	}
	liveShards = append(liveShards, reborn)
	// A shard may be drained once it has admitted, and finished, every
	// connection that was made to it. The senders returning only means
	// their bytes reached the sockets: a shard drained while one of its
	// connections is still unaccepted spills a prefix of that connection.
	dialed := map[*testShard]int{}
	for i := range results {
		for _, d := range results[i].dials {
			if d.tee.Len() > 0 {
				dialed[byAddr[d.target]]++
			}
		}
	}
	for _, ts := range liveShards {
		waitFor(t, "shard producers to finish", func() bool {
			snap := ts.c.Snapshot()
			if len(snap.Producers) < dialed[ts] {
				return false
			}
			for _, p := range snap.Producers {
				if p.Connected {
					return false
				}
			}
			return true
		})
		ts.drain(t)
	}

	// Per-connection accounting. A group key identifies (shard instance,
	// slot base); every spilled group must be claimed by exactly one dial.
	type groupRef struct {
		ts   *testShard
		base int
	}
	groups := map[groupRef][]wireBlock{}
	totalSpill := 0
	for _, ts := range append(liveShards, killed) {
		for base, blocks := range spillGroups(t, ts) {
			groups[groupRef{ts, base}] = blocks
			totalSpill += len(blocks)
		}
	}
	matched := map[groupRef]bool{}
	totalWire, loss := 0, 0
	rehashed := 0
	killedDials := 0
	for pi := range results {
		res := &results[pi]
		if res.stats.Dropped != 0 {
			t.Errorf("producer %d dropped %d blocks; reliable send must ride out the kill", pi, res.stats.Dropped)
		}
		if len(res.dials) > 1 {
			rehashed++
		}
		for _, d := range res.dials {
			wire := parseWire(t, d.tee.Bytes())
			totalWire += len(wire)
			ts, ok := byAddr[d.target]
			if !ok {
				t.Fatalf("producer %d dialed unknown target %s", pi, d.target)
			}
			if len(wire) == 0 {
				continue
			}
			if ts == killed {
				killedDials++
				// The sever point is arbitrary: the spill holds a prefix of
				// what the wire carried, and the suffix is the loss.
				found := false
				for ref, blocks := range groups {
					if ref.ts != killed || matched[ref] {
						continue
					}
					if len(blocks) <= len(wire) && reflect.DeepEqual(blocks, wire[:len(blocks)]) {
						matched[ref] = true
						loss += len(wire) - len(blocks)
						found = true
						break
					}
				}
				if !found {
					// Severed before any complete block was accepted.
					loss += len(wire)
				}
				continue
			}
			found := false
			for ref, blocks := range groups {
				if ref.ts != ts || matched[ref] {
					continue
				}
				if reflect.DeepEqual(blocks, wire) {
					matched[ref] = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("producer %d: no spill group on %s matches its %d wire blocks", pi, nameOf[d.target], len(wire))
			}
		}
	}
	for ref := range groups {
		if !matched[ref] {
			t.Errorf("spill group at base %d on %s claimed by no connection (%d blocks)",
				ref.base, ref.ts.s.Stats().Name, len(groups[ref]))
		}
	}
	if totalSpill != totalWire-loss {
		t.Errorf("loss accounting: %d spilled blocks != %d wire blocks - %d lost on the killed shard",
			totalSpill, totalWire, loss)
	}
	t.Logf("chaos accounting: %d wire blocks, %d spilled, %d lost with the killed shard (%d dials hit it)",
		totalWire, totalSpill, loss, killedDials)
	if killedDials < 2 {
		t.Errorf("only %d connections hit the killed shard; key pinning guarantees at least 2", killedDials)
	}
	if rehashed == 0 {
		t.Error("no producer reconnected: the kill rehashed nobody")
	}

	// The soak must exercise the faults it claims to on the producer hop
	// (shard-side counters), and the leaving heartbeats must still carry
	// the producers' mask epochs up.
	var reordered, garbled uint64
	for _, ts := range append(liveShards, killed) {
		for _, p := range ts.c.Snapshot().Producers {
			reordered += p.Reordered
			garbled += p.Garbled
		}
	}
	if reordered == 0 {
		t.Error("soak injected no observable reordering")
	}
	if garbled == 0 {
		t.Error("soak injected no observable garbling")
	}
	if len(agg.overview(t).MaskEpochs) == 0 {
		t.Error("/fed/overview has no mask epoch")
	}
	agg.stop(t)
}
