// Command shmlog is a shared-memory trace producer: it attaches to a
// segment owned by a running ktraced and logs from this process's address
// space — the application side of the paper's user-mapped buffers. Use
// several concurrent shmlog invocations to exercise true cross-process
// logging on one segment.
//
// Three modes: the default logs -n two-word test events round-robin
// across the segment's CPU slots (or one slot with -cpu); -workload
// instead runs the deterministic sched/syscall/lock synthetic workload on
// one slot, so the resulting trace exercises the analysis tools; -hang
// reserves buffer space and deliberately never commits it, blocking until
// killed — the fault-injection client for exercising the daemon's dead
// client reap and commit-count loss accounting.
//
// Usage:
//
//	shmlog -seg /dev/shm/k42.seg -n 100000
//	shmlog -seg /dev/shm/k42.seg -workload -cpu 1 -pid 202 -n 5000
//	shmlog -seg /dev/shm/k42.seg -hang -payload 3 & kill -9 $!
package main

import (
	"context"
	"os"

	"k42trace/internal/daemon"
)

// No signal handling: a client is killed, not drained.
func main() { os.Exit(daemon.Shmlog(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }
