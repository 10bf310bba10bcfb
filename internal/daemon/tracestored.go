package daemon

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"k42trace/internal/relay"
	"k42trace/internal/store"
	"k42trace/internal/stream"
)

// Tracestored is the multi-tenant trace store: HTTP upload and query, a
// polled spool directory (-watch), a relay-wire listener (-relay), and
// compaction and retention on timers. Shutdown order on cancel: stop the
// timers and the spool poll, close the relay listener (which waits for
// uploads in flight to finish ingesting), close the HTTP server, close the
// store, print the catalog.
func Tracestored(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	p := newProc("tracestored", stdout, stderr)
	var opt store.Options
	p.fs.StringVar(&opt.Root, "root", "", "store root directory (required)")
	httpAddr := p.fs.String("http", "127.0.0.1:7045", "HTTP listen address")
	watch := p.fs.String("watch", "", "spool directory to poll for <tenant>/*.ktr uploads")
	watchEvery := p.fs.Duration("watch-every", time.Second, "spool poll period")
	relayAddr := p.fs.String("relay", "", "relay-wire listen address (tracerelay/shmlog senders)")
	relayTenant := p.fs.String("relay-tenant", "default", "tenant namespace for relay uploads")
	p.fs.Uint64Var(&opt.SegmentSpan, "seg-span", 0, "segment time width in trace ticks (0 = one segment per upload)")
	p.fs.Int64Var(&opt.MaxSegmentBytes, "max-seg-bytes", 64<<20, "compaction output size cap")
	p.fs.DurationVar(&opt.RetainAge, "retain-age", 0, "expire segments older than this (0 = keep)")
	p.fs.Int64Var(&opt.RetainBytes, "retain-bytes", 0, "per-tenant byte budget (0 = unlimited)")
	compactEvery := p.fs.Duration("compact-every", 0, "compaction period (0 = only on /admin/compact)")
	gcEvery := p.fs.Duration("gc-every", 0, "retention period (0 = only on /admin/gc)")
	p.fs.IntVar(&opt.Workers, "j", 0, "query scan workers (0 = 8); ingest, index and aggregation workers (0 = all cores)")
	p.fs.Int64Var(&opt.CacheBytes, "cache-bytes", 256<<20, "segment query result cache budget (0 = disabled)")
	adm := &opt.Admission
	p.fs.IntVar(&adm.MaxConcurrent, "query-concurrency", 0, "global concurrent query limit (0 = admission control off)")
	p.fs.IntVar(&adm.TenantMax, "tenant-queries", 0, "per-tenant concurrent query limit (0 = query-concurrency)")
	p.fs.IntVar(&adm.TenantQueue, "tenant-queue", 8, "per-tenant query wait-queue depth; overflow is refused with 429")
	if code, ok := p.parse(args); !ok {
		return code
	}
	if opt.Root == "" {
		fmt.Fprintln(p.stderr, "usage: tracestored -root DIR [-http ADDR] [-watch DIR] [-relay ADDR]")
		p.fs.PrintDefaults()
		return 2
	}
	if *watchEvery <= 0 {
		return p.usage("-watch-every %v: want a positive period", *watchEvery)
	}
	if !store.ValidTenant(*relayTenant) {
		return p.usage("bad -relay-tenant %q", *relayTenant)
	}
	if adm.MaxConcurrent == 0 && adm.TenantMax > 0 {
		// A per-tenant cap alone still needs a pool to draw from: size the
		// global pool to the scan parallelism the box can actually deliver.
		adm.MaxConcurrent = max(2*runtime.GOMAXPROCS(0), adm.TenantMax)
	}

	s, err := store.Open(opt)
	if err != nil {
		return p.fail(err)
	}
	defer s.Close()
	webLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return p.fail(err)
	}
	defer webLn.Close()
	var relaySrv *relay.Server
	if *relayAddr != "" {
		if relaySrv, err = relay.ListenConns(*relayAddr, p.relayIngest(s, *relayTenant)); err != nil {
			return p.fail(err)
		}
		p.say("relay ingest on %s (tenant %s)", relaySrv.Addr(), *relayTenant)
	}

	bg, stop := context.WithCancel(ctx)
	defer stop()
	var timers sync.WaitGroup
	every := func(d time.Duration, fn func()) {
		timers.Add(1)
		go func() {
			defer timers.Done()
			tick := time.NewTicker(d)
			defer tick.Stop()
			for {
				select {
				case <-bg.Done():
					return
				case <-tick.C:
					fn()
				}
			}
		}()
	}
	if *watch != "" {
		every(*watchEvery, func() { p.ingestSpool(s, *watch) })
		p.say("watching %s", *watch)
	}
	if *compactEvery > 0 {
		every(*compactEvery, func() {
			for _, r := range s.CompactAll() {
				p.say("compacted %s: %d -> %d segments (%d events)", r.Tenant, r.In, r.Out, r.Events)
			}
		})
	}
	if *gcEvery > 0 {
		every(*gcEvery, func() {
			for _, r := range s.GCAll() {
				p.say("gc %s: %d segments, %d bytes", r.Tenant, r.Segments, r.Bytes)
			}
		})
	}
	p.serve(webLn, s.Handler())
	p.say("root %s, http on %s", opt.Root, webLn.Addr())

	p.wait(ctx, ", shutting down")
	stop()
	timers.Wait()
	if relaySrv != nil {
		relaySrv.Close() // waits for in-flight uploads to finish ingesting
	}
	p.closeWeb()
	s.Close()
	for _, t := range s.Tenants() {
		p.say("tenant %s: %d segments, %d events, %d bytes", t.Name, t.Segments, t.Events, t.Bytes)
	}
	return 0
}

// relayIngest spools each incoming block stream to a temp .ktr and
// ingests it as one upload when the sender finishes. A damaged block is
// skipped and logged, as the salvager would on the same bytes POSTed to
// /ingest; it does not end the upload. Nor does a torn connection undo
// it: the blocks spooled before the tear are whole (CopyStats.Blocks
// counts them whatever the error), and a relay.Link re-sends only the
// block that failed, on a new connection — so they are ingested, and the
// tear is still the handler's error.
func (p *proc) relayIngest(s *store.Store, tenant string) relay.ConnHandler {
	return func(c relay.Conn) error {
		tmp, err := os.CreateTemp("", "tracestored-relay-*.ktr")
		if err != nil {
			return err
		}
		defer os.Remove(tmp.Name())
		defer tmp.Close()
		wr, err := stream.NewWriter(tmp, c.Stream.Meta())
		if err != nil {
			return err
		}
		cs, torn := c.Stream.CopyTo(wr)
		if torn != nil {
			if cs.Blocks == 0 {
				return torn
			}
			p.warn("relay upload from %v torn after %d blocks, ingesting those: %v", c.Remote, cs.Blocks, torn)
		}
		res, err := s.IngestFile(tenant, tmp.Name())
		if err != nil {
			return err
		}
		p.say("relay upload %d from %v: %d events in %d segments, %d damaged blocks skipped",
			res.Upload, c.Remote, res.Events, len(res.Segments), cs.Damaged)
		return torn
	}
}

// ingestSpool is one poll of the spool tree: <dir>/<tenant>/*.ktr files
// are ingested and renamed aside so a crash never double-ingests silently.
func (p *proc) ingestSpool(s *store.Store, dir string) {
	// A directory that cannot be read is an empty one until the next poll.
	tenants, _ := os.ReadDir(dir)
	for _, td := range tenants {
		if !td.IsDir() || !store.ValidTenant(td.Name()) {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(dir, td.Name()))
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".ktr") {
				continue
			}
			path := filepath.Join(dir, td.Name(), f.Name())
			res, err := s.IngestFile(td.Name(), path)
			if err != nil {
				p.warn("%s: %v", path, err)
				os.Rename(path, path+".failed")
				continue
			}
			os.Rename(path, path+".stored")
			p.say("%s: upload %d, %d events in %d segments", path, res.Upload, res.Events, len(res.Segments))
		}
	}
}
