// Command tracestored is the multi-tenant trace store daemon: it owns a
// directory tree of time-sharded trace segments, ingests .ktr spills
// (HTTP upload, a watched spool directory, or a relay-wire listener),
// rewrites them through salvage into clean time-bounded segments with
// persisted indexes, and answers time/predicate/aggregation queries from
// index-pruned parallel scans. Retention and compaction run on timers.
//
// HTTP surface (on -http):
//
//	GET  /healthz                 liveness + config echo
//	GET  /metrics                 Prometheus text exposition
//	GET  /tenants                 per-tenant catalog summary
//	POST /ingest?tenant=T         upload one .ktr spill (body = file)
//	GET  /query?tenant=T&from=&to=&major=&minor=&pid=&agg=&limit=&cursor=
//	POST /admin/compact[?tenant=T]
//	POST /admin/gc[?tenant=T]
//
// The watch directory is polled: a file at <watch>/<tenant>/x.ktr is
// ingested into tenant's namespace and renamed to x.ktr.stored (or
// .failed). The relay listener accepts tracerelay/shmlog senders; each
// connection becomes one upload under -relay-tenant.
//
// Usage:
//
//	tracestored -root /var/lib/tracestore -http 127.0.0.1:7045
package main

import (
	"os"

	"k42trace/internal/daemon"
)

func main() { os.Exit(daemon.Main(daemon.Tracestored)) }
