package fed

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"k42trace/internal/analysis"
)

// TestRingDeterministicOwnership: ownership is a pure function of the
// member set — independent of member order, and identical between the
// aggregator's owner and the client-side RingDoc.Owner that producers
// compute from the HTTP document. The pinned rows are assignments the
// ring has always made: producers already running keep their shards.
func TestRingDeterministicOwnership(t *testing.T) {
	members := []string{"10.0.0.1:7042", "10.0.0.2:7042", "10.0.0.3:7042"}
	reversed := slices.Clone(members)
	slices.Reverse(reversed)
	doc := RingDoc{Vnodes: DefaultVnodes, Members: members}
	seen := map[string]int{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("producer-%d", i)
		oa, ok := owner(members, DefaultVnodes, key)
		if !ok {
			t.Fatal("ring claims to be empty")
		}
		if ob, _ := owner(reversed, DefaultVnodes, key); ob != oa {
			t.Fatalf("key %q: owner depends on member order (%s vs %s)", key, oa, ob)
		}
		if od, _ := doc.Owner(key); od != oa {
			t.Fatalf("key %q: client-side doc owner %s != owner %s", key, od, oa)
		}
		seen[oa]++
	}
	// With 64 vnodes each, a 3-member ring must spread 1000 keys over all
	// members; the floor is deliberately loose (hash variance at 64 vnodes
	// is real), it only guards against a member being effectively starved.
	for _, m := range members {
		if seen[m] < 50 {
			t.Errorf("member %s owns only %d/1000 keys", m, seen[m])
		}
	}

	for _, row := range []struct {
		members    []string
		key, owner string
	}{
		{members, "producer-0", "10.0.0.3:7042"},
		{members, "producer-42", "10.0.0.2:7042"},
		{members, "web-1", "10.0.0.1:7042"},
		{members, "k0", "10.0.0.2:7042"},
		{[]string{"127.0.0.1:7154", "127.0.0.1:7156"}, "producer-0", "127.0.0.1:7156"},
		{[]string{"127.0.0.1:7154", "127.0.0.1:7156"}, "web-1", "127.0.0.1:7154"},
		{[]string{"a:1", "b:1", "c:1", "d:1"}, "producer-0", "d:1"},
		{[]string{"a:1", "b:1", "c:1", "d:1"}, "producer-42", "a:1"},
		{[]string{"a:1", "b:1", "c:1", "d:1"}, "web-1", "b:1"},
		{[]string{"a:1", "b:1", "c:1", "d:1"}, "", "c:1"},
		{[]string{"h1:1"}, "sdet-3", "h1:1"},
	} {
		if got, _ := (RingDoc{Members: row.members}).Owner(row.key); got != row.owner {
			t.Errorf("members %q, key %q: owner %s, want %s", row.members, row.key, got, row.owner)
		}
	}
	if got, ok := owner(nil, DefaultVnodes, "producer-0"); ok {
		t.Errorf("empty ring owns a key: %s", got)
	}
}

// TestRingMinimalDisruption: removing one member moves ONLY the keys it
// owned; every other key keeps its owner. That is the property that makes
// a shard death rehash only the dead shard's producers.
func TestRingMinimalDisruption(t *testing.T) {
	before := map[string]string{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k%d", i)
		before[key], _ = owner([]string{"a:1", "b:1", "c:1", "d:1"}, DefaultVnodes, key)
	}
	moved := 0
	for key, was := range before {
		now, ok := owner([]string{"a:1", "b:1", "d:1"}, DefaultVnodes, key)
		if !ok {
			t.Fatal("ring empty after one removal")
		}
		if was == "c:1" {
			moved++
			if now == "c:1" {
				t.Fatalf("key %q still owned by removed member", key)
			}
		} else if now != was {
			t.Fatalf("key %q moved %s -> %s though its owner survived", key, was, now)
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned no keys; test proves nothing")
	}
}

// TestMembershipLifecycle walks one member through every state with a
// fake clock: active on first beat, expired when beats stop, active again
// on rejoin, left on a Leaving beat, and expired by a read of the members
// alone — with the ring tracking only the active phase and the merged
// overview counting all of them.
func TestMembershipLifecycle(t *testing.T) {
	a := NewAggregator(AggOptions{MemberTTL: time.Second})
	ms := a.ms
	now := time.Unix(1000, 0)
	ms.now = func() time.Time { return now }

	ov := func(events uint64) []analysis.ProcSummary {
		return []analysis.ProcSummary{{Pid: 7, UserNs: events * 10, Events: events}}
	}
	ms.Beat(Heartbeat{Name: "s1", Addr: "h1:1", Overview: ov(5)})
	ms.Beat(Heartbeat{Name: "s2", Addr: "h2:1", Overview: ov(3)})
	if got := ms.Doc().Members; len(got) != 2 {
		t.Fatalf("ring members %v, want 2", got)
	}

	// s2 stops beating; s1 keeps going past the TTL.
	now = now.Add(700 * time.Millisecond)
	ms.Beat(Heartbeat{Name: "s1", Addr: "h1:1", Overview: ov(6)})
	now = now.Add(700 * time.Millisecond)
	ms.Beat(Heartbeat{Name: "s1", Addr: "h1:1", Overview: ov(8)})
	if got := ms.Doc().Members; len(got) != 1 || got[0] != "h1:1" {
		t.Fatalf("after s2 expiry, ring members %v, want [h1:1]", got)
	}
	states := map[string]MemberState{}
	for _, m := range ms.Members() {
		states[m.Name] = m.State
	}
	if states["s1"] != StateActive || states["s2"] != StateExpired {
		t.Fatalf("states %v", states)
	}
	// Expired members keep counting: merged = s1's newest (8) + s2's last (3).
	merged := a.Overview().Overview
	if len(merged) != 1 || merged[0].Events != 11 {
		t.Fatalf("merged overview %+v, want pid 7 events 11", merged)
	}

	// s2 rejoins on a new address: active again, old addr never resurfaces.
	ms.Beat(Heartbeat{Name: "s2", Addr: "h2:9", Overview: ov(4)})
	if got := ms.Doc().Members; len(got) != 2 {
		t.Fatalf("after rejoin, ring members %v", got)
	}
	for _, m := range ms.Doc().Members {
		if m == "h2:1" {
			t.Fatal("stale address back on the ring after readdressed rejoin")
		}
	}

	// Graceful leave: off the ring, final overview still counts.
	ms.Beat(Heartbeat{Name: "s2", Addr: "h2:9", Leaving: true, Overview: ov(9)})
	if got := ms.Doc().Members; len(got) != 1 || got[0] != "h1:1" {
		t.Fatalf("after leave, ring members %v", got)
	}
	merged = a.Overview().Overview
	if len(merged) != 1 || merged[0].Events != 17 {
		t.Fatalf("merged after leave %+v, want events 17", merged)
	}

	// Readdressing while active: one beat moves the ring member string.
	ms.Beat(Heartbeat{Name: "s1", Addr: "h1:5", Overview: ov(8)})
	if got := ms.Doc().Members; !reflect.DeepEqual(got, []string{"h1:5"}) {
		t.Fatalf("after readdress, ring members %v, want [h1:5]", got)
	}

	// s1 falls silent past the TTL and nothing beats or reads the ring
	// document: reading the members alone expires it.
	epoch := ms.Doc().Epoch
	now = now.Add(1500 * time.Millisecond)
	states = map[string]MemberState{}
	for _, m := range ms.Members() {
		states[m.Name] = m.State
	}
	if states["s1"] != StateExpired || states["s2"] != StateLeft {
		t.Fatalf("after s1's silence, Members() reports states %v, want s1 expired, s2 left", states)
	}
	if got := ms.epoch; got <= epoch {
		t.Errorf("ring epoch %d after Members() expired s1, want past %d", got, epoch)
	}
	if got := ms.ring; len(got) != 0 {
		t.Errorf("ring members %v after Members() expired s1, want none", got)
	}
}

// TestSharedAddressStaysOnRing: an address stays on the ring while any
// active member announces it, whether another member at the same address
// expires or leaves gracefully.
func TestSharedAddressStaysOnRing(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	ms := NewMembership(time.Second)
	ms.now = clock

	ms.Beat(Heartbeat{Name: "a", Addr: "x:1"})
	now = now.Add(600 * time.Millisecond)
	ms.Beat(Heartbeat{Name: "b", Addr: "x:1"})
	now = now.Add(600 * time.Millisecond) // a expires, b is active
	if got := ms.Doc().Members; !slices.Equal(got, []string{"x:1"}) {
		t.Errorf("after a expired, ring members %q, want [x:1] (b is active there)", got)
	}

	ms = NewMembership(time.Second)
	ms.now = clock
	ms.Beat(Heartbeat{Name: "c", Addr: "y:1"})
	ms.Beat(Heartbeat{Name: "d", Addr: "y:1"})
	ms.Beat(Heartbeat{Name: "c", Addr: "y:1", Leaving: true})
	if got := ms.Doc().Members; !slices.Equal(got, []string{"y:1"}) {
		t.Errorf("after c left, ring members %q, want [y:1] (d is active there)", got)
	}
}

// TestFederatedOverviewIsInNameOrder: the aggregator folds its members'
// overviews, and lists them, in name order, so one membership gives one
// answer — a pid two shards name differently keeps the name-first
// shard's name on every call, and mask epochs at one time come out in
// name order.
func TestFederatedOverviewIsInNameOrder(t *testing.T) {
	a := NewAggregator(AggOptions{})
	a.ms.Beat(Heartbeat{Name: "b", Addr: "h2:1", Overview: []analysis.ProcSummary{{Pid: 7, Name: "pid7", UserNs: 10}},
		MaskEpochs: []analysis.MaskEpoch{{Time: 5, CPU: 0}, {Time: 9, CPU: 1}}})
	a.ms.Beat(Heartbeat{Name: "a", Addr: "h1:1", Overview: []analysis.ProcSummary{{Pid: 7, Name: "init", UserNs: 20}},
		MaskEpochs: []analysis.MaskEpoch{{Time: 5, CPU: 2}, {Time: 7, CPU: 3}}})
	wantEpochs := []analysis.MaskEpoch{{Time: 5, CPU: 2}, {Time: 5, CPU: 0}, {Time: 7, CPU: 3}, {Time: 9, CPU: 1}}
	for i := 0; i < 100; i++ {
		doc := a.Overview()
		var names []string
		for _, m := range doc.Members {
			names = append(names, m.Name)
		}
		if len(doc.Overview) != 1 || doc.Overview[0].Name != "init" || !slices.Equal(names, []string{"a", "b"}) {
			t.Fatalf("call %d: overview %+v, members %q; want pid 7 named init, members [a b]", i, doc.Overview, names)
		}
		if !slices.Equal(doc.MaskEpochs, wantEpochs) {
			t.Fatalf("call %d: mask epochs %+v, want %+v", i, doc.MaskEpochs, wantEpochs)
		}
	}
}
