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
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"k42trace/internal/relay"
	"k42trace/internal/store"
	"k42trace/internal/stream"
)

func main() {
	root := flag.String("root", "", "store root directory (required)")
	httpAddr := flag.String("http", "127.0.0.1:7045", "HTTP listen address")
	watch := flag.String("watch", "", "spool directory to poll for <tenant>/*.ktr uploads")
	watchEvery := flag.Duration("watch-every", time.Second, "spool poll period")
	relayAddr := flag.String("relay", "", "relay-wire listen address (tracerelay/shmlog senders)")
	relayTenant := flag.String("relay-tenant", "default", "tenant namespace for relay uploads")
	segSpan := flag.Uint64("seg-span", 0, "segment time width in trace ticks (0 = one segment per upload)")
	maxSegBytes := flag.Int64("max-seg-bytes", 64<<20, "compaction output size cap")
	retainAge := flag.Duration("retain-age", 0, "expire segments older than this (0 = keep)")
	retainBytes := flag.Int64("retain-bytes", 0, "per-tenant byte budget (0 = unlimited)")
	compactEvery := flag.Duration("compact-every", 0, "compaction period (0 = only on /admin/compact)")
	gcEvery := flag.Duration("gc-every", 0, "retention period (0 = only on /admin/gc)")
	jobs := flag.Int("j", 0, "decode/scan workers (0 = all cores)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "segment query result cache budget (0 = disabled)")
	queryConc := flag.Int("query-concurrency", 0, "global concurrent query limit (0 = admission control off)")
	tenantQueries := flag.Int("tenant-queries", 0, "per-tenant concurrent query limit (0 = query-concurrency)")
	tenantQueue := flag.Int("tenant-queue", 8, "per-tenant query wait-queue depth; overflow is refused with 429")
	flag.Parse()
	if *root == "" {
		fmt.Fprintln(os.Stderr, "usage: tracestored -root DIR [-http ADDR] [-watch DIR] [-relay ADDR]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *queryConc == 0 && *tenantQueries > 0 {
		// A per-tenant cap alone still needs a pool to draw from: size the
		// global pool to the scan parallelism the box can actually deliver.
		*queryConc = 2 * runtime.GOMAXPROCS(0)
		if *queryConc < *tenantQueries {
			*queryConc = *tenantQueries
		}
	}

	s, err := store.Open(store.Options{
		Root:            *root,
		SegmentSpan:     *segSpan,
		MaxSegmentBytes: *maxSegBytes,
		RetainAge:       *retainAge,
		RetainBytes:     *retainBytes,
		Workers:         *jobs,
		CacheBytes:      *cacheBytes,
		Admission: store.AdmissionOptions{
			MaxConcurrent: *queryConc,
			TenantMax:     *tenantQueries,
			TenantQueue:   *tenantQueue,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestored:", err)
		os.Exit(1)
	}

	stop := make(chan struct{})

	var relaySrv *relay.Server
	if *relayAddr != "" {
		relaySrv, err = relay.Listen(*relayAddr, relayIngest(s, *relayTenant))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracestored:", err)
			os.Exit(1)
		}
		fmt.Printf("tracestored: relay ingest on %s (tenant %s)\n", relaySrv.Addr(), *relayTenant)
	}
	if *watch != "" {
		go watchLoop(s, *watch, *watchEvery, stop)
		fmt.Printf("tracestored: watching %s\n", *watch)
	}
	if *compactEvery > 0 {
		go periodic(*compactEvery, stop, func() {
			for _, r := range s.CompactAll() {
				fmt.Printf("tracestored: compacted %s: %d -> %d segments (%d events)\n",
					r.Tenant, r.In, r.Out, r.Events)
			}
		})
	}
	if *gcEvery > 0 {
		go periodic(*gcEvery, stop, func() {
			for _, r := range s.GCAll() {
				fmt.Printf("tracestored: gc %s: %d segments, %d bytes\n", r.Tenant, r.Segments, r.Bytes)
			}
		})
	}

	web := &http.Server{Addr: *httpAddr, Handler: s.Handler()}
	webErr := make(chan error, 1)
	go func() { webErr <- web.ListenAndServe() }()
	fmt.Printf("tracestored: root %s, http on %s\n", *root, *httpAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case sg := <-sig:
		fmt.Printf("tracestored: %v, shutting down\n", sg)
	case err := <-webErr:
		fmt.Fprintln(os.Stderr, "tracestored: http:", err)
	}
	close(stop)
	if relaySrv != nil {
		relaySrv.Close() // waits for in-flight uploads to finish ingesting
	}
	web.Close()
	s.Close()
	for _, t := range s.Tenants() {
		fmt.Printf("tracestored: tenant %s: %d segments, %d events, %d bytes\n",
			t.Name, t.Segments, t.Events, t.Bytes)
	}
}

// relayIngest spools each incoming block stream to a temp .ktr and
// ingests it as one upload when the sender finishes. A damaged block is
// skipped and logged, as the salvager would on the same bytes POSTed to
// /ingest; it does not end the upload. Nor does a torn connection undo
// it: the blocks spooled before the tear are whole (CopyStats.Blocks
// counts them whatever the error), and a relay.Link re-sends only the
// block that failed, on a new connection — so they are ingested, and the
// tear is still the handler's error.
func relayIngest(s *store.Store, tenant string) relay.Handler {
	return func(remote net.Addr, bs *stream.BlockStream) error {
		tmp, err := os.CreateTemp("", "tracestored-relay-*.ktr")
		if err != nil {
			return err
		}
		defer os.Remove(tmp.Name())
		defer tmp.Close()
		wr, err := stream.NewWriter(tmp, bs.Meta())
		if err != nil {
			return err
		}
		cs, torn := bs.CopyTo(wr)
		if torn != nil {
			if cs.Blocks == 0 {
				return torn
			}
			fmt.Fprintf(os.Stderr, "tracestored: relay upload from %v torn after %d blocks, ingesting those: %v\n",
				remote, cs.Blocks, torn)
		}
		res, err := s.IngestFile(tenant, tmp.Name())
		if err != nil {
			return err
		}
		fmt.Printf("tracestored: relay upload %d from %v: %d events in %d segments, %d damaged blocks skipped\n",
			res.Upload, remote, res.Events, len(res.Segments), cs.Damaged)
		return torn
	}
}

// watchLoop polls the spool tree: <watch>/<tenant>/*.ktr files are
// ingested and renamed aside so a crash never double-ingests silently.
func watchLoop(s *store.Store, dir string, every time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		tenants, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, td := range tenants {
			if !td.IsDir() || !store.ValidTenant(td.Name()) {
				continue
			}
			files, err := os.ReadDir(filepath.Join(dir, td.Name()))
			if err != nil {
				continue
			}
			for _, f := range files {
				if f.IsDir() || !strings.HasSuffix(f.Name(), ".ktr") {
					continue
				}
				path := filepath.Join(dir, td.Name(), f.Name())
				res, err := s.IngestFile(td.Name(), path)
				if err != nil {
					fmt.Fprintf(os.Stderr, "tracestored: %s: %v\n", path, err)
					os.Rename(path, path+".failed")
					continue
				}
				os.Rename(path, path+".stored")
				fmt.Printf("tracestored: %s: upload %d, %d events in %d segments\n",
					path, res.Upload, res.Events, len(res.Segments))
			}
		}
	}
}

func periodic(every time.Duration, stop <-chan struct{}, fn func()) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			fn()
		}
	}
}
