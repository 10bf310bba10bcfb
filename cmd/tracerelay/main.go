// Command tracerelay is the sending end of the relayfs-style network
// transport: it runs a traced SDET workload and streams the buffers to a
// collector (tracecolld, traceaggd or tracestored -relay) as they seal,
// demonstrating that "this event log may be ... streamed over the
// network".
//
// The sender can also inject transport chaos — dropped, duplicated,
// reordered, torn, bit-flipped, or zeroed blocks, driven by a fixed seed —
// to exercise a collector's salvage path end to end (pair with
// ktrace check -salvage on tracecolld's -spill file).
//
// With -remote-control the sender also listens for control frames coming
// back down the collector connection and applies mask updates to its live
// tracer (see tracecolld's POST /live/mask) — the paper's "dynamically
// alter the types of events logged" knob, operated from the collector end.
// -loadgen replaces the finite SDET workload with a steady synthetic
// event stream for -duration, so there is something long-lived to retune.
//
// Usage:
//
//	tracerelay -send 127.0.0.1:7042 -cpus 4 -config coarse
//	tracerelay -send 127.0.0.1:7042 -chaos-seed 7 -drop 0.05 -dup 0.05 -reorder 4
//	tracerelay -send 127.0.0.1:7042 -remote-control -loadgen -duration 30s
//	tracerelay -fed http://127.0.0.1:7053 -key web-1 -remote-control -loadgen
//
// With -fed the sender never names a collector: before every dial it
// fetches the aggregator's consistent-hash ring and dials whichever
// shard owns -key, so killing a shard rehashes the sender onto a
// survivor on its next reconnect.
package main

import (
	"os"

	"k42trace/internal/daemon"
)

func main() { os.Exit(daemon.Main(daemon.Tracerelay)) }
