package fed

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"testing"
	"time"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/live"
	"k42trace/internal/relay"
	"k42trace/internal/stream"
)

// rebalProd is one long-lived producer under test control: the test drives
// its event phases from the main goroutine while SendReliable streams and
// the control back-channel applies masks.
type rebalProd struct {
	idx int
	tr  *core.Tracer

	mu      sync.Mutex
	applied []uint64 // masks applied via the back-channel, in order

	stats relay.ReliableStats
	done  chan struct{}
}

func startRebalProducer(t *testing.T, aggURL, key string, idx int) *rebalProd {
	t.Helper()
	p := &rebalProd{
		idx: idx,
		tr: core.MustNew(core.Config{
			CPUs: 2, BufWords: 64, NumBufs: 8,
			Mode: core.Stream, Clock: clock.NewManual(1),
		}),
		done: make(chan struct{}),
	}
	p.tr.EnableAll()
	go func() {
		defer close(p.done)
		st, err := relay.SendReliable(p.tr, "fed", relay.ReliableOptions{
			Resolve: RingResolver(aggURL, key),
			OnControl: func(f relay.ControlFrame) {
				if f.Type != relay.CtrlSetMask {
					return
				}
				p.tr.ApplyMask(f.Mask)
				p.mu.Lock()
				p.applied = append(p.applied, f.Mask|event.MajorControl.Bit())
				p.mu.Unlock()
			},
			InitialBackoff: 10 * time.Millisecond,
			MaxBackoff:     100 * time.Millisecond,
			MaxAttempts:    1000,
		})
		if err != nil {
			t.Errorf("producer %s: %v", key, err)
		}
		p.stats = st
	}()
	return p
}

// log emits tagged test events; enough of them seal blocks, which is what
// drives SendReliable to (re)connect.
func (p *rebalProd) log(from, to int) {
	for k := from; k < to; k++ {
		p.tr.CPU(k%2).Log1(event.MajorTest, 1, uint64(p.idx)<<32|uint64(k))
	}
}

func (p *rebalProd) appliedMasks() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]uint64(nil), p.applied...)
}

// postMask drives the federation control plane the way an operator does:
// POST /live/mask at the aggregator.
func postMask(t *testing.T, aggURL string, mask uint64) {
	t.Helper()
	resp, err := http.PostForm(aggURL+"/live/mask", url.Values{"mask": {fmt.Sprintf("0x%x", mask)}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /live/mask: %s", resp.Status)
	}
}

// marker is one CtrlMaskChange observed in a spill, keyed back to the
// producer and producer-local CPU that logged it.
type marker struct {
	time uint64
	mask uint64
}

// spillMarkers walks a spill in arrival order and returns the
// CtrlMaskChange markers per (producer tag, producer-local CPU). Producer
// identity comes from the MajorTest tag events interleaved in the same
// slot group — per-CPU seq order guarantees a group's tags precede any
// marker logged after them.
func spillMarkers(t *testing.T, ts *testShard) map[[2]int][]marker {
	t.Helper()
	snap := ts.c.Snapshot()
	out := map[[2]int][]marker{}
	if ts.spill.Len() == 0 {
		return out
	}
	bs, err := stream.NewBlockStream(bytes.NewReader(ts.spill.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	prodOfBase := map[int]int{}
	pending := map[int][]marker{} // markers per absolute CPU, arrival order
	for {
		h, words, err := bs.Next(nil)
		if err == io.EOF {
			break
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
		evs, _ := core.DecodeBuffer(h.CPU, words)
		for _, e := range evs {
			switch {
			case e.Major() == event.MajorTest && len(e.Data) >= 1:
				prodOfBase[base] = int(e.Data[0] >> 32)
			case e.Major() == event.MajorControl && e.Minor() == event.CtrlMaskChange && len(e.Data) >= 2:
				pending[e.CPU] = append(pending[e.CPU], marker{time: e.Time, mask: e.Data[0]})
			}
		}
	}
	for cpu, ms := range pending {
		base := (cpu / 2) * 2
		idx, ok := prodOfBase[base]
		if !ok {
			t.Fatalf("markers on CPU %d but no producer tag in its slot group", cpu)
		}
		out[[2]int{idx, cpu - base}] = append(out[[2]int{idx, cpu - base}], ms...)
	}
	return out
}

// TestRebalanceMaskHandoff pins the control-plane half of a rebalance:
// a mask posted at the aggregator fans down to every producer on the next
// heartbeat reply; when a shard dies, its producers rehash to the survivor via SendReliable's
// ring re-resolution and pick up the newer desired mask through the
// survivor's pending replay — and the CtrlMaskChange markers recovered
// from the two shards' spills stay strictly monotone per producer CPU
// across the handoff.
func TestRebalanceMaskHandoff(t *testing.T) {
	// The TTL must stay much longer than startShard's 50 ms heartbeat: mask
	// B reaches the survivor on its next beat, and the orphaned producer
	// must not rehash onto it before then, or the survivor's replay on
	// admission would hand it mask A a second time.
	agg := startAgg(t, AggOptions{MemberTTL: 1500 * time.Millisecond})
	s0 := startShard(t, agg, "r0", live.Options{Window: 500 * time.Millisecond, MaxWindows: 4, CPUSlots: 32})
	s1 := startShard(t, agg, "r1", live.Options{Window: 500 * time.Millisecond, MaxWindows: 4, CPUSlots: 32})
	byAddr := map[string]*testShard{s0.srv.Addr(): s0, s1.srv.Addr(): s1}
	waitFor(t, "both shards on the ring", func() bool {
		return len(agg.a.ms.Doc().Members) == 2
	})
	doc := agg.a.ms.Doc()
	keys := pickKeys(t, doc, "rb-", 1)
	prods := make([]*rebalProd, len(keys))
	shardOf := make([]*testShard, len(keys))
	var onS1 *rebalProd
	var onS0 *rebalProd
	for i, key := range keys {
		owner, _ := doc.Owner(key)
		shardOf[i] = byAddr[owner]
		prods[i] = startRebalProducer(t, agg.web.URL, key, i)
		if shardOf[i] == s1 {
			onS1 = prods[i]
		} else {
			onS0 = prods[i]
		}
	}

	// Phase 1: both producers connect to their ring-assigned shards.
	for _, p := range prods {
		p.log(0, 200)
	}
	for _, ts := range []*testShard{s0, s1} {
		waitFor(t, "producer connected to its shard", func() bool {
			snap := ts.c.Snapshot()
			return len(snap.Producers) >= 1 && snap.Producers[0].Blocks > 0
		})
	}

	// Mask A posted at the ROOT fans down aggregator → shards (on their
	// heartbeat replies) → producers.
	maskA := event.MajorTest.Bit() | event.MajorSched.Bit()
	maskAApplied := maskA | event.MajorControl.Bit()
	postMask(t, agg.web.URL, maskA)
	for _, p := range prods {
		waitFor(t, "mask A applied on every producer", func() bool {
			ms := p.appliedMasks()
			return len(ms) >= 1 && ms[len(ms)-1] == maskAApplied
		})
	}
	// Phase 2 seals the marker blocks; wait until each shard has SEEN the
	// in-band marker come back up (so the A epoch is in the doomed shard's
	// spill before it dies).
	for _, p := range prods {
		p.log(200, 400)
	}
	wantA := event.MaskString(maskAApplied)
	for _, ts := range []*testShard{s0, s1} {
		waitFor(t, "shard observed the applied-mask marker", func() bool {
			st := ts.c.MaskStatus()
			return len(st.Producers) >= 1 && st.Producers[0].AppliedMask == wantA
		})
	}

	// Kill the shard, then move the desired mask while its producer is
	// disconnected: the producer must pick B up from the SURVIVOR's
	// pending replay after the ring rehashes it over.
	epochBefore := agg.a.ms.Doc().Epoch
	s1.srv.CloseNow()
	if err := s1.s.kill(); err != nil {
		t.Errorf("kill: %v", err)
	}
	maskB := ^uint64(0)
	postMask(t, agg.web.URL, maskB)
	waitFor(t, "killed shard off the ring", func() bool {
		d := agg.a.ms.Doc()
		return len(d.Members) == 1 && d.Members[0] == s0.srv.Addr()
	})
	if e := agg.a.ms.Doc().Epoch; e <= epochBefore {
		t.Errorf("ring epoch %d did not advance past %d on member loss", e, epochBefore)
	}

	// Phase 3 seals blocks on the orphaned producer, forcing the redial
	// that lands it on s0 and replays mask B; the stayed producer receives
	// B on its live connection.
	for _, p := range prods {
		p.log(400, 800)
	}
	for _, p := range prods {
		waitFor(t, "mask B applied on every producer", func() bool {
			ms := p.appliedMasks()
			return len(ms) >= 1 && ms[len(ms)-1] == maskB
		})
	}
	// Phase 4 seals the B markers into s0's spill, then everything stops.
	for _, p := range prods {
		p.log(800, 1000)
		p.tr.Stop()
		<-p.done
	}
	if onS1.stats.Dials < 2 {
		t.Errorf("rehashed producer dialed %d times, want >= 2 (reconnect to the survivor)", onS1.stats.Dials)
	}
	if onS0.stats.Dials != 1 {
		t.Errorf("surviving producer dialed %d times, want exactly 1", onS0.stats.Dials)
	}
	for _, p := range prods {
		if p.stats.Dropped != 0 {
			t.Errorf("producer %d dropped %d blocks across the handoff", p.idx, p.stats.Dropped)
		}
		if got := p.appliedMasks(); len(got) != 2 || got[0] != maskAApplied || got[1] != maskB {
			t.Errorf("producer %d applied masks %#x, want exactly [%#x %#x]", p.idx, got, maskAApplied, maskB)
		}
	}
	waitFor(t, "survivor producers to finish", func() bool {
		snap := s0.c.Snapshot()
		if len(snap.Producers) < 2 {
			return false
		}
		for _, p := range snap.Producers {
			if p.Connected {
				return false
			}
		}
		return true
	})
	s0.drain(t)

	// Epoch monotonicity across the handoff, recovered from the spills:
	// per producer CPU, the A marker (in the dead shard's spill for the
	// rehashed producer) strictly precedes the B marker (in the
	// survivor's), and the mask sequence is exactly A then B.
	mS1 := spillMarkers(t, s1)
	mS0 := spillMarkers(t, s0)
	for _, p := range prods {
		for cpu := 0; cpu < 2; cpu++ {
			key := [2]int{p.idx, cpu}
			var seq []marker
			seq = append(seq, mS1[key]...)
			seq = append(seq, mS0[key]...)
			if len(seq) != 2 {
				t.Errorf("producer %d cpu %d: %d markers across both spills, want 2", p.idx, cpu, len(seq))
				continue
			}
			if seq[0].mask != maskAApplied || seq[1].mask != maskB {
				t.Errorf("producer %d cpu %d: mask sequence [%#x %#x], want [%#x %#x]",
					p.idx, cpu, seq[0].mask, seq[1].mask, maskAApplied, maskB)
			}
			if seq[0].time >= seq[1].time {
				t.Errorf("producer %d cpu %d: epochs not monotone across handoff (%d then %d)",
					p.idx, cpu, seq[0].time, seq[1].time)
			}
		}
		if p == onS1 {
			key0 := [2]int{p.idx, 0}
			if len(mS1[key0]) != 1 || len(mS0[key0]) != 1 {
				t.Errorf("rehashed producer: markers not split across shards (%d on dead, %d on survivor)",
					len(mS1[key0]), len(mS0[key0]))
			}
		}
	}
	if f := s1.s.Stats().CtrlMaskFrames; f < 1 {
		t.Errorf("dead shard fanned down %d mask frames before dying, want >= 1", f)
	}
	if f := s0.s.Stats().CtrlMaskFrames; f < 2 {
		t.Errorf("survivor fanned down %d mask frames, want >= 2", f)
	}
	agg.stop(t)
}
