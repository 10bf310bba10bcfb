package fed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"k42trace/internal/analysis"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/ksim"
	"k42trace/internal/live"
	"k42trace/internal/relay"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// waitFor polls cond until it holds or a deadline passes: network sends
// returning only means bytes reached a socket, server-side state must be
// awaited.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// testAgg is an in-process aggregator behind an httptest server for the
// federation HTTP surface.
type testAgg struct {
	a   *Aggregator
	web *httptest.Server
}

func startAgg(t *testing.T, opt AggOptions) *testAgg {
	t.Helper()
	a := NewAggregator(opt)
	return &testAgg{a: a, web: httptest.NewServer(a.Mux())}
}

// stop shuts the aggregator's HTTP surface down.
func (ta *testAgg) stop(t *testing.T) {
	t.Helper()
	ta.web.Close()
}

// overview GETs the federated overview while the aggregator still serves.
func (ta *testAgg) overview(t *testing.T) FedOverview {
	t.Helper()
	resp, err := ta.web.Client().Get(ta.web.URL + "/fed/overview")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc FedOverview
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// testShard is one in-process federated collector with a spill buffer.
type testShard struct {
	c     *live.Collector
	s     *Shard
	srv   *relay.Server
	spill *bytes.Buffer
}

func startShard(t *testing.T, agg *testAgg, name string, lo live.Options) *testShard {
	t.Helper()
	ts := &testShard{spill: &bytes.Buffer{}}
	lo.Spill = ts.spill
	ts.c = live.NewCollector(lo)
	// Advertise the real listener address: bind first, then start the
	// heartbeats so the very first one names a dialable address.
	var err error
	ts.srv, err = relay.ListenConns("127.0.0.1:0", ts.c.Handler())
	if err != nil {
		t.Fatal(err)
	}
	ts.s, err = NewShard(ts.c, ShardOptions{
		Name:           name,
		Advertise:      ts.srv.Addr(),
		AggHTTP:        agg.web.URL,
		HeartbeatEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// drain shuts the shard down in daemon order (graceful leave).
func (ts *testShard) drain(t *testing.T) {
	t.Helper()
	ts.srv.CloseNow()
	if err := ts.s.Drain(); err != nil {
		t.Errorf("shard drain: %v", err)
	}
}

// pickKeys deterministically chooses producer keys such that the ring
// assigns perShard of them to every member — the tests must not depend
// on hash luck for coverage.
func pickKeys(t *testing.T, doc RingDoc, prefix string, perShard int) []string {
	t.Helper()
	need := map[string]int{}
	for _, m := range doc.Members {
		need[m] = perShard
	}
	var keys []string
	for i := 0; len(keys) < perShard*len(doc.Members); i++ {
		if i > 100000 {
			t.Fatal("could not cover every shard with keys")
		}
		key := fmt.Sprintf("%s%d", prefix, i)
		owner, ok := doc.Owner(key)
		if !ok {
			t.Fatal("empty ring")
		}
		if need[owner] > 0 {
			need[owner]--
			keys = append(keys, key)
		}
	}
	return keys
}

// runSDETProducer runs one traced SDET kernel streaming into the
// federation: the collector is resolved through the aggregator's ring on
// every dial. Before its workload it turns off MajorTest, which the kernel
// never logs: the workload's events are unchanged, and each producer CPU
// carries one mask epoch.
func runSDETProducer(t *testing.T, aggURL, key string, seed int64) relay.ReliableStats {
	t.Helper()
	k, tr, err := ksim.NewTracedKernel(
		ksim.Config{CPUs: 2, Tuned: true, Seed: seed, SamplePeriod: 40_000, HWCSamplePeriod: 40_000},
		core.Config{BufWords: 2048, NumBufs: 8, Mode: core.Stream})
	if err != nil {
		t.Error(err)
		return relay.ReliableStats{}
	}
	tr.EnableAll()
	done := make(chan relay.ReliableStats, 1)
	go func() {
		st, err := relay.SendReliable(tr, "fed", relay.ReliableOptions{
			Resolve: RingResolver(aggURL, key),
		})
		if err != nil {
			t.Errorf("producer %s: %v", key, err)
		}
		done <- st
	}()
	tr.ApplyMask(^event.MajorTest.Bit())
	if _, err := k.Run(sdet.Workload(2, sdet.Params{ScriptsPerCPU: 2, CommandsPerScript: 3, Seed: seed})); err != nil {
		t.Error(err)
	}
	tr.Stop()
	return <-done
}

// readSpill decodes a shard spill into events plus the trace context.
func readSpill(t *testing.T, spill *bytes.Buffer) (*analysis.Trace, uint64) {
	t.Helper()
	rd, err := stream.NewReader(bytes.NewReader(spill.Bytes()), int64(spill.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs, dst, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if dst.Garbled() {
		t.Fatal("spill is garbled")
	}
	return analysis.Build(evs, rd.Meta().ClockHz, event.Default), rd.Meta().ClockHz
}

// blankNames strips the presentation-only Name column: process naming is
// resolved against whichever shard absorbed the defining event, so a pid
// active on several shards may legitimately render under different names
// while every measured sum must still agree exactly.
func blankNames(rows []analysis.ProcSummary) []analysis.ProcSummary {
	out := append([]analysis.ProcSummary(nil), rows...)
	for i := range out {
		out[i].Name = ""
	}
	return out
}

// TestFederatedOverviewParity is the golden parity harness: a 3-shard
// federation ingests 6 SDET producers placed by the ring, and after a
// full drain the federated /fed/overview must equal — row for row — the
// offline Overview of the shards' spill files, merged with the same
// Merge form the parallel offline analyses use, at -j1 and -j8. Because
// each shard's live overview equals the offline Overview of its own
// spill (the PR 3 invariant, per shard), and MergeOverview is the
// commutative pid-keyed fold, the federation-level merge closes the
// chain: merged live == merged offline == Overview of the concatenated
// spills. The mask epochs the leaving heartbeats carried are the spills'
// epochs.
func TestFederatedOverviewParity(t *testing.T) {
	agg := startAgg(t, AggOptions{MemberTTL: 3 * time.Second})
	const shards = 3
	var tss []*testShard
	for i := 0; i < shards; i++ {
		tss = append(tss, startShard(t, agg, fmt.Sprintf("s%d", i),
			live.Options{Window: 250 * time.Millisecond, MaxWindows: 8, CPUSlots: 8}))
	}
	waitFor(t, "all shards on the ring", func() bool {
		return len(agg.a.ms.Doc().Members) == shards
	})

	keys := pickKeys(t, agg.a.ms.Doc(), "par-", 2)
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func(key string, seed int64) {
			defer wg.Done()
			st := runSDETProducer(t, agg.web.URL, key, seed)
			if st.Dials != 1 || st.Dropped != 0 {
				t.Errorf("producer %s: %d dials, %d dropped; want one clean connection", key, st.Dials, st.Dropped)
			}
		}(key, int64(i+1))
	}
	wg.Wait()
	for _, ts := range tss {
		waitFor(t, "shard producers to finish", func() bool {
			s := ts.c.Snapshot()
			if len(s.Producers) == 0 {
				return false
			}
			for _, p := range s.Producers {
				if p.Connected {
					return false
				}
			}
			return true
		})
	}
	// Drain bottom-up: shards first (leaving heartbeats carry their exact
	// final overviews and mask epochs), then the aggregator.
	for _, ts := range tss {
		ts.drain(t)
	}
	doc := agg.overview(t)
	agg.stop(t)

	if len(doc.Members) != shards {
		t.Fatalf("fed overview names %d members, want %d", len(doc.Members), shards)
	}
	for _, m := range doc.Members {
		if m.State != StateLeft {
			t.Errorf("member %s state %s after graceful drain, want %s", m.Name, m.State, StateLeft)
		}
		if m.Blocks == 0 || m.Events == 0 || m.Producers == 0 {
			t.Errorf("member %s reported no ingest (%d producers, %d blocks, %d events)",
				m.Name, m.Producers, m.Blocks, m.Events)
		}
	}

	// Offline ground truth: per-spill overviews at -j1 and -j8, merged.
	var hz uint64
	var perShard []*analysis.Trace
	for _, ts := range tss {
		tr, h := readSpill(t, ts.spill)
		perShard = append(perShard, tr)
		hz = h
	}
	for _, jobs := range []int{1, 8} {
		var parts [][]analysis.ProcSummary
		for _, tr := range perShard {
			parts = append(parts, tr.OverviewParallel(jobs))
		}
		offline := analysis.MergeOverview(parts...)
		if !reflect.DeepEqual(doc.Overview, offline) {
			t.Fatalf("-j%d: federated overview != offline merge of shard spills\nfed:\n%s\noffline:\n%s",
				jobs, overviewText(doc.Overview), overviewText(offline))
		}
	}

	// The concatenation form: remap each shard's events onto disjoint CPU
	// ranges and analyze the union as ONE trace. All sums must match the
	// merge exactly; only the Name column may differ, since the union
	// trace resolves every pid against a single global naming map.
	var all []event.Event
	for i, tr := range perShard {
		for _, e := range tr.Events {
			e.CPU += i * 8
			all = append(all, e)
		}
	}
	concat := analysis.Build(all, hz, event.Default)
	for _, jobs := range []int{1, 8} {
		got := blankNames(concat.OverviewParallel(jobs))
		want := blankNames(doc.Overview)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("-j%d: Overview of concatenated spills != federated overview\nconcat:\n%s\nfed:\n%s",
				jobs, overviewText(got), overviewText(want))
		}
	}

	// The heartbeats lose no epoch: the aggregator's epochs are the
	// spills' epochs, as a multiset of (Time, Mask, Prev) — a CPU number
	// is the reporting shard's own, so two shards can repeat one.
	epochs := func(eps []analysis.MaskEpoch) map[analysis.MaskEpoch]int {
		n := map[analysis.MaskEpoch]int{}
		for _, ep := range eps {
			ep.CPU = 0
			n[ep]++
		}
		return n
	}
	var spilled []analysis.MaskEpoch
	for _, tr := range perShard {
		spilled = append(spilled, tr.MaskEpochs...)
	}
	if len(spilled) != 2*len(keys) {
		t.Errorf("shard spills hold %d mask epochs, want one per producer CPU (%d)", len(spilled), 2*len(keys))
	}
	if got, want := epochs(doc.MaskEpochs), epochs(spilled); !reflect.DeepEqual(got, want) {
		t.Errorf("federated mask epochs %v != shard spills' %v", got, want)
	}
}

// overviewText is the overview table FormatOverview writes.
func overviewText(rows []analysis.ProcSummary) string {
	var b strings.Builder
	analysis.FormatOverview(&b, rows)
	return b.String()
}
