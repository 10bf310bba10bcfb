// Package fed scales the collector tier out horizontally: many tracecolld
// shards ingest disjoint producer populations, relay upward to one
// aggregator over the existing relay wire (control frames riding the same
// connections back down), and report their cumulative analyses for a
// federated merged overview. Producer-to-shard assignment uses a
// consistent-hash ring, so member loss moves only the lost member's
// producers — the relayfs buffer hierarchy of the paper, scaled from one
// machine's layers to a fleet's tiers.
package fed

import (
	"sort"
	"sync"
)

// DefaultVnodes is the number of virtual nodes each member contributes to
// the ring. More vnodes smooth the assignment distribution; the value is
// part of the ring contract — producers resolving owners client-side must
// build their ring with the same count, which is why RingDoc carries it.
const DefaultVnodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring assigning string keys (producer
// identities) to members (collector addresses). It is safe for concurrent
// use. Membership changes bump Epoch, so clients can cheaply detect that
// their cached assignment may be stale.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	members map[string]struct{}
	points  []ringPoint
	epoch   uint64
}

// NewRing builds an empty ring with the given virtual-node count per
// member (<= 0 means DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, members: map[string]struct{}{}}
}

// Vnodes returns the ring's virtual-node count.
func (r *Ring) Vnodes() int { return r.vnodes }

// Add inserts a member, reporting whether it was new. Adding an existing
// member is a no-op and does not bump the epoch.
func (r *Ring) Add(member string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; ok {
		return false
	}
	r.members[member] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(member, i), member: member})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	r.epoch++
	return true
}

// Remove deletes a member, reporting whether it was present.
func (r *Ring) Remove(member string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; !ok {
		return false
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
	r.epoch++
	return true
}

// Members returns the current members, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Epoch returns the membership generation; it bumps on every effective
// Add or Remove.
func (r *Ring) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// Owner maps a key to its member: the first virtual node clockwise from
// the key's hash. ok is false on an empty ring. The mapping is a pure
// function of the member set, so any two parties that agree on members
// and vnodes agree on every assignment — the property rebalancing relies
// on (producers and the aggregator never negotiate, they just hash).
func (r *Ring) Owner(key string) (member string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member, true
}

// hash64 is 64-bit FNV-1a: deterministic across processes and platforms,
// with no dependencies — the same reasons the wire format is hand-rolled.
func hash64(s string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// vnodeHash places one of a member's virtual nodes.
func vnodeHash(member string, i int) uint64 {
	return hash64(member + "#" + itoa(i))
}

// itoa avoids strconv in the hash hot loop helper (and keeps vnodeHash
// trivially portable to a non-Go client computing the same ring).
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
