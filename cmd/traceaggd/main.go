// Command traceaggd is the federation root: the tier above a pool of
// tracecolld shards. Shards POST heartbeats to its HTTP surface, each
// carrying the shard's cumulative overview and newest mask epochs, and
// take the desired mask from each reply; producers GET the
// consistent-hash ring document and dial whichever shard owns their key.
// A mask POSTed here reaches every shard on its next heartbeat and every
// producer through that shard's own control frames, and the federated
// overview merges the shards' cumulative summaries into one per-process
// view of the whole fleet.
//
// HTTP surface (on -http), the daemon's only listener:
//
//	/healthz        liveness
//	/metrics        Prometheus text exposition: members by state, ring
//	                epoch, heartbeats, desired-mask majors
//	/live/mask      GET the desired mask; POST mask=<spec> sets it
//	/fed/ring       the ring document producers resolve owners from
//	/fed/heartbeat  POST one shard heartbeat
//	/fed/overview   the federated merged overview
//	/fed/members    every shard ever seen, with state and overview
//
// Usage:
//
//	traceaggd -http 127.0.0.1:7053 -member-ttl 3s
package main

import (
	"os"

	"k42trace/internal/daemon"
)

func main() { os.Exit(daemon.Main(daemon.Traceaggd)) }
