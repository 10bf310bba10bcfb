// Command tracecolld is the long-running collector daemon: many traced
// systems stream their sealed buffers to it concurrently (tracerelay
// -send, ideally with -reconnect), and it runs incremental sliding-window
// analysis over the merged stream while optionally spilling every raw
// block to a trace file. This is the paper's live-monitoring claim at
// fleet scale: "this event log may be examined while the system is
// running ... or streamed over the network", with bounded collector
// memory no matter how long the session runs.
//
// HTTP surface (on -http):
//
//	/healthz        liveness
//	/metrics        Prometheus text exposition
//	/live/overview  cumulative per-process summary + producer states
//	/live/windows   per-window analysis snapshots
//	/live/mask      GET mask control-plane state; POST mask=<spec>
//	                [producer=<id>] to retune producers at runtime
//	/fed/shard      with -agg-http: the shard's heartbeat and fan-down
//	                counters
//
// On SIGINT/SIGTERM the daemon reads every producer connection to its end,
// cutting one still open after the drain grace (reliable senders redial
// on their own once a collector is back), applies every block read into
// the analysis and the spill, and exits; the spill is a well-formed .ktr
// openable by every offline tool.
//
// Usage:
//
//	tracecolld -listen 127.0.0.1:7042 -http 127.0.0.1:7043 -spill drained.ktr
package main

import (
	"os"

	"k42trace/internal/daemon"
)

func main() { os.Exit(daemon.Main(daemon.Tracecolld)) }
