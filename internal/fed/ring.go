// Package fed scales the collector tier out horizontally: many tracecolld
// shards ingest disjoint producer populations, and each heartbeats to one
// aggregator over HTTP — its cumulative overview and newest mask epochs
// up for the federated merged overview, the desired trace mask back down
// in the reply. Producer-to-shard assignment uses a consistent-hash ring,
// so member loss moves only the lost member's producers — the relayfs
// buffer hierarchy of the paper, scaled from one machine's layers to a
// fleet's tiers.
package fed

import "strconv"

// DefaultVnodes is the number of virtual nodes each member contributes to
// the ring. More vnodes smooth the assignment distribution; the value is
// part of the ring contract — producers resolving owners client-side must
// hash with the same count, which is why RingDoc carries it.
const DefaultVnodes = 64

// owner maps key to its member on the consistent-hash ring of members,
// each placed at vnodes virtual nodes "member#i" (<= 0 means
// DefaultVnodes): the first virtual node clockwise from the key's hash.
// ok is false for no members. The mapping is a pure function of the
// member set, so any two parties that agree on members and vnodes agree
// on every assignment — the property rebalancing relies on (producers and
// the aggregator never negotiate, they just hash).
func owner(members []string, vnodes int, key string) (member string, ok bool) {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	h := hash64(key)
	var best uint64
	for _, m := range members {
		for i := 0; i < vnodes; i++ {
			// The clockwise distance from the key wraps past zero on its own.
			d := hash64(m+"#"+strconv.Itoa(i)) - h
			if !ok || d < best {
				member, best, ok = m, d, true
			}
		}
	}
	return member, ok
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
