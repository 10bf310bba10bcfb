// Membership: the aggregator's view of its collector pool. Shards
// announce themselves with periodic HTTP heartbeats carrying their
// cumulative overview and their newest mask epochs; the aggregator
// derives the consistent-hash ring from its active members, expires
// members whose heartbeats stop (a SIGKILLed collector), and takes off
// the ring — but remembers — members that leave gracefully, so the
// federated merged overview still covers everything they ingested before
// draining.
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

// Membership tracks the shard pool behind an aggregator. The ring is
// derived from the member records under the same lock: its members are
// the distinct addresses of the active members, and its epoch advances
// whenever that set changes.
type Membership struct {
	ttl time.Duration

	mu      sync.Mutex
	members map[string]*Member // keyed by Name
	ring    []string           // the active members' addresses, sorted and distinct
	epoch   uint64
	now     func() time.Time // test seam
}

// NewMembership builds a membership with the given heartbeat TTL
// (<= 0 means 3 s).
func NewMembership(ttl time.Duration) *Membership {
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	return &Membership{
		ttl:     ttl,
		members: map[string]*Member{},
		now:     time.Now,
	}
}

// Beat absorbs one heartbeat, joining (or rejoining) the member, and
// reports the resulting ring epoch. A rejoin after expiry or a graceful
// leave puts the member's address back on the ring; Overview and counters
// always reflect the newest heartbeat, since shards report cumulative
// state.
func (ms *Membership) Beat(hb Heartbeat) (epoch uint64) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m := ms.members[hb.Name]
	if m == nil {
		m = &Member{Joined: ms.now()}
		ms.members[hb.Name] = m
	}
	m.Heartbeat = hb
	m.LastSeen = ms.now()
	m.Beats++
	m.State = StateActive
	if hb.Leaving {
		m.State = StateLeft
	}
	ms.refreshLocked()
	return ms.epoch
}

// refreshLocked expires members whose heartbeats stopped and derives the
// ring from the members left active. Every beat and every read of the
// membership calls it, so a reader never sees a member that is provably
// dead as active, and an address stays on the ring while any active
// member still announces it.
func (ms *Membership) refreshLocked() {
	cutoff := ms.now().Add(-ms.ttl)
	var ring []string
	for _, m := range ms.members {
		if m.State == StateActive && m.LastSeen.Before(cutoff) {
			m.State = StateExpired
		}
		if m.State == StateActive {
			ring = append(ring, m.Addr)
		}
	}
	slices.Sort(ring)
	if ring = slices.Compact(ring); !slices.Equal(ring, ms.ring) {
		ms.ring = ring
		ms.epoch++
	}
}

// Members returns a copy of every member record, active or not, in name
// order, after expiring the members whose heartbeats stopped.
func (ms *Membership) Members() []Member {
	members, _ := ms.snapshot()
	return members
}

// snapshot is Members together with the ring epoch they give, both read
// under one lock.
func (ms *Membership) snapshot() ([]Member, uint64) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.refreshLocked()
	out := make([]Member, 0, len(ms.members))
	for _, name := range slices.Sorted(maps.Keys(ms.members)) {
		cp := *ms.members[name]
		cp.Overview = append([]analysis.ProcSummary(nil), cp.Overview...)
		cp.MaskEpochs = append([]analysis.MaskEpoch(nil), cp.MaskEpochs...)
		out = append(out, cp)
	}
	return out, ms.epoch
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
	defer ms.mu.Unlock()
	ms.refreshLocked()
	return RingDoc{Epoch: ms.epoch, Vnodes: DefaultVnodes, Members: append([]string{}, ms.ring...)}
}

// Owner resolves a producer key against the ring document, exactly as a
// client would: hash it onto the ring of the document's members.
// Exported so producers and tests share one assignment function.
func (d RingDoc) Owner(key string) (string, bool) {
	return owner(d.Members, d.Vnodes, key)
}
