// Command ktraced is the shared-memory trace daemon — the reproduction of
// K42's user-level trace daemon, "responsible for writing the data to
// disk", for segments that real OS processes map and log into with no
// system calls. It creates a segment file (put it on tmpfs), publishes it
// for clients (any process using ktrace.Attach or the shmlog driver),
// continuously drains sealed buffers, writes off clients that die without
// detaching — including SIGKILL mid-event, which surfaces as a
// commit-count anomaly on the affected buffer — and on SIGINT/SIGTERM
// seals what remains and exits.
//
// Drained buffers go to a trace file (-spill) or over the network to a
// collector like tracecolld (-relay, with reliable reconnecting), using
// the same block format as in-process tracing, so every offline and live
// tool works unchanged on cross-process traces.
//
// With -admin the daemon also serves a small HTTP control plane for
// per-client mask management, so an operator can narrow one misbehaving
// client to (say) nothing but control events without disturbing the rest:
//
//	GET  /masks                        current global and per-client masks
//	POST /mask?mask=SPEC               set the global mask
//	POST /mask?client=SLOT&mask=SPEC   set one client slot's override
//
// SPEC is the same syntax as -mask ("all", a hex literal, or major names).
//
// Usage:
//
//	ktraced -seg /dev/shm/k42.seg -spill out.ktr
//	ktraced -seg /dev/shm/k42.seg -cpus 4 -relay 127.0.0.1:7042 -admin 127.0.0.1:7043
package main

import (
	"os"

	"k42trace/internal/daemon"
)

func main() { os.Exit(daemon.Main(daemon.Ktraced)) }
