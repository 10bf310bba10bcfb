// Membership: the aggregator's view of its collector pool. Shards
// announce themselves with periodic HTTP heartbeats carrying their
// cumulative overview and their newest mask epochs; the aggregator keeps active members on the
// consistent-hash ring, expires members whose heartbeats stop (a
// SIGKILLed collector), and removes — but remembers — members that leave
// gracefully, so the federated merged overview still covers everything
// they ingested before draining.
package fed

import (
	"maps"
	"slices"
	"sync"
	"time"

	"k42trace/internal/analysis"
)

// MemberState classifies a member's ring status.
type MemberState string

const (
	// StateActive members are on the ring and heartbeating.
	StateActive MemberState = "active"
	// StateLeft members drained gracefully; their final overview counts.
	StateLeft MemberState = "left"
	// StateExpired members stopped heartbeating (crash, partition); their
	// last-reported overview counts, understood to be a lower bound.
	StateExpired MemberState = "expired"
)

// Heartbeat is one shard's periodic report (the POST /fed/heartbeat body).
type Heartbeat struct {
	// Name identifies the shard across restarts and readdressing.
	Name string `json:"name"`
	// Addr is the shard's producer-facing relay address — the value
	// producers dial, and therefore the ring member string.
	Addr string `json:"addr"`
	// HTTP is the shard's own HTTP surface, for operators ("" if none).
	HTTP string `json:"http,omitempty"`
	// Leaving marks a final heartbeat: the shard drained and its Overview
	// is exact and final. The member leaves the ring but keeps counting in
	// the merged overview.
	Leaving bool `json:"leaving,omitempty"`
	// Producers/Blocks/Events summarize the shard's ingest so far.
	Producers int    `json:"producers"`
	Blocks    uint64 `json:"blocks"`
	Events    uint64 `json:"events"`
	// Overview is the shard's cumulative per-process summary, merged at
	// the aggregator with analysis.MergeOverview.
	Overview []analysis.ProcSummary `json:"overview,omitempty"`
	// MaskEpochs are the newest mask-change markers the shard has seen
	// (its live snapshot's, oldest first), on the shard's own CPU slots.
	MaskEpochs []analysis.MaskEpoch `json:"mask_epochs,omitempty"`
}

// HeartbeatReply is the aggregator's answer to a heartbeat: the ring
// epoch, and the desired trace mask as a hex literal ("" if none was ever
// set), which the shard broadcasts to its producers when it changes.
type HeartbeatReply struct {
	Epoch uint64 `json:"epoch"`
	Mask  string `json:"mask,omitempty"`
}

// Member is one shard's aggregator-side record.
type Member struct {
	Heartbeat
	State    MemberState `json:"state"`
	LastSeen time.Time   `json:"last_seen"`
	Joined   time.Time   `json:"joined"`
	// Beats counts heartbeats received from this member.
	Beats uint64 `json:"beats"`
}

// Membership tracks the shard pool behind an aggregator.
type Membership struct {
	ring *Ring
	ttl  time.Duration

	mu      sync.Mutex
	members map[string]*Member // keyed by Name
	now     func() time.Time   // test seam
}

// NewMembership builds a membership with the given heartbeat TTL
// (<= 0 means 3 s) and DefaultVnodes per member on its ring.
func NewMembership(ttl time.Duration) *Membership {
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	return &Membership{
		ring:    NewRing(DefaultVnodes),
		ttl:     ttl,
		members: map[string]*Member{},
		now:     time.Now,
	}
}

// Ring exposes the membership's consistent-hash ring.
func (ms *Membership) Ring() *Ring { return ms.ring }

// Beat absorbs one heartbeat, joining (or rejoining) the member, and
// reports the resulting ring epoch. A rejoin after expiry or a graceful
// leave re-adds the member to the ring; Overview and counters always
// reflect the newest heartbeat, since shards report cumulative state.
func (ms *Membership) Beat(hb Heartbeat) (epoch uint64) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.expireLocked()
	m := ms.members[hb.Name]
	if m == nil {
		m = &Member{Joined: ms.now()}
		ms.members[hb.Name] = m
	}
	if m.State == StateActive && m.Addr != hb.Addr && m.Addr != "" {
		// Readdressed shard (restart on a new port): the old address must
		// leave the ring or producers would keep hashing onto a corpse.
		ms.ring.Remove(m.Addr)
	}
	m.Heartbeat = hb
	m.LastSeen = ms.now()
	m.Beats++
	if hb.Leaving {
		m.State = StateLeft
		ms.ring.Remove(hb.Addr)
	} else {
		m.State = StateActive
		ms.ring.Add(hb.Addr)
	}
	return ms.ring.Epoch()
}

// expireLocked expires members whose heartbeats stopped, removing them
// from the ring. Every read of the membership calls it first, so a reader
// never sees a member that is provably dead as active.
func (ms *Membership) expireLocked() {
	cutoff := ms.now().Add(-ms.ttl)
	for _, m := range ms.members {
		if m.State == StateActive && m.LastSeen.Before(cutoff) {
			m.State = StateExpired
			ms.ring.Remove(m.Addr)
		}
	}
}

// Members returns a copy of every member record, active or not, in name
// order, after expiring the members whose heartbeats stopped.
func (ms *Membership) Members() []Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.expireLocked()
	out := make([]Member, 0, len(ms.members))
	for _, name := range slices.Sorted(maps.Keys(ms.members)) {
		cp := *ms.members[name]
		cp.Overview = append([]analysis.ProcSummary(nil), cp.Overview...)
		cp.MaskEpochs = append([]analysis.MaskEpoch(nil), cp.MaskEpochs...)
		out = append(out, cp)
	}
	return out
}

// MergedOverview folds every member's cumulative overview (active, left,
// and expired alike — all of it was really ingested) into the federated
// per-process summary, using the same Merge form the parallel offline
// analyses use. Because each shard's overview equals the offline Overview
// of its own spill, this merge equals the offline Overview of the
// concatenated shard spills. Members fold in name order, so a pid two
// shards name differently keeps the name-first shard's name.
func (ms *Membership) MergedOverview() []analysis.ProcSummary {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	parts := make([][]analysis.ProcSummary, 0, len(ms.members))
	for _, name := range slices.Sorted(maps.Keys(ms.members)) {
		parts = append(parts, ms.members[name].Overview)
	}
	return analysis.MergeOverview(parts...)
}

// RingDoc is the GET /fed/ring document: everything a producer needs to
// compute its own owner client-side — the member list, the vnode count
// (the ring contract), and the epoch for cache invalidation.
type RingDoc struct {
	Epoch   uint64   `json:"epoch"`
	Vnodes  int      `json:"vnodes"`
	Members []string `json:"members"`
}

// Doc snapshots the ring document.
func (ms *Membership) Doc() RingDoc {
	ms.mu.Lock()
	ms.expireLocked()
	ms.mu.Unlock()
	return RingDoc{
		Epoch:   ms.ring.Epoch(),
		Vnodes:  ms.ring.Vnodes(),
		Members: ms.ring.Members(),
	}
}

// Owner resolves a producer key against the ring document, exactly as a
// client would: build the ring from the member set and hash. Exported so
// producers, tests, and the aggregator share one assignment function.
func (d RingDoc) Owner(key string) (string, bool) {
	r := NewRing(d.Vnodes)
	for _, m := range d.Members {
		r.Add(m)
	}
	return r.Owner(key)
}
