// Command traceaggd is the federation root: the tier above a pool of
// tracecolld shards. Shards dial its relay listener with their uplinks
// (relaying accepted blocks upward over the standard wire) and POST
// heartbeats to its HTTP surface; producers GET the consistent-hash ring
// document and dial whichever shard owns their key. A mask POSTed here
// fans down through every shard to every producer — two hops of the same
// control-frame machinery — and the federated overview merges the
// shards' cumulative summaries into one per-process view of the whole
// fleet.
//
// HTTP surface (on -http):
//
//	/healthz        liveness
//	/metrics        Prometheus text exposition (the shard-uplink mirror)
//	/live/overview  the aggregator's own collector snapshot
//	/live/mask      GET control state; POST mask=<spec> fans down the tree
//	/fed/ring       the ring document producers resolve owners from
//	/fed/heartbeat  POST one shard heartbeat
//	/fed/overview   the federated merged overview
//	/fed/members    every shard ever seen, with state and overview
//
// Usage:
//
//	traceaggd -listen 127.0.0.1:7052 -http 127.0.0.1:7053 -spill fleet.ktr
package main

import (
	"os"

	"k42trace/internal/daemon"
)

func main() { os.Exit(daemon.Main(daemon.Traceaggd)) }
