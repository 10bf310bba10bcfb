package daemon

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"k42trace/internal/event"
	"k42trace/internal/fed"
	"k42trace/internal/flagset"
	"k42trace/internal/live"
	"k42trace/internal/relay"
)

// sayMask announces a startup -mask as a collector or an aggregator keeps
// it: with MajorControl forced on.
func (p *proc) sayMask(mask uint64) {
	mask |= event.MajorControl.Bit()
	p.say("desired mask %s (%s)", event.MaskString(mask), strings.Join(event.MaskMajors(mask), ","))
}

// Tracecolld is the live collector, standalone or (with -agg-http) with a
// shard heartbeating beside it into a federation. Its life: check its flags,
// create -spill, bind both listeners, announce them, serve until cancel;
// then read the relay connections to their end (cutting any still open at
// the drain grace), drain every queued block into the analysis and the
// spill — a shard's drain then sends the leaving heartbeat — close the
// spill and the HTTP server. After that it prints the totals and hands
// the spill to -store.
func Tracecolld(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	p := newProc("tracecolld", stdout, stderr)
	var opt live.Options
	var so fed.ShardOptions
	listen := p.fs.String("listen", "127.0.0.1:7042", "producer listen address")
	httpAddr := p.fs.String("http", "127.0.0.1:7043", "metrics/snapshot HTTP address")
	flagset.Var(p.fs, &opt.Window, "window", 250*time.Millisecond, "analysis window width (trace time)", flagset.Over[time.Duration](0))
	flagset.Var(p.fs, &opt.MaxWindows, "max-windows", 32, "live windows kept before eviction", flagset.Min(1))
	flagset.Var(p.fs, &opt.QueueBlocks, "queue", live.DefaultQueueBlocks, "per-producer ingest queue depth, blocks", flagset.Min(1))
	flagset.Var(p.fs, &opt.EnqueueTimeout, "slow", 5*time.Second, "how long a producer may wait on a full queue before disconnection", flagset.Over[time.Duration](0))
	flagset.Var(p.fs, &opt.CPUSlots, "cpu-slots", 256, "total remapped CPU slots across all producers", flagset.In(1, 1<<16))
	spillPath := p.fs.String("spill", "", "spill every accepted block to this trace file")
	storeURL := p.fs.String("store", "", "tracestored base URL to upload the final spill to (e.g. http://127.0.0.1:7045)")
	storeTenant := flagset.New(p.fs, "store-tenant", "default", "tenant namespace for the -store upload", tenantName)
	watch := flagset.New(p.fs, "watch", "", "comma-separated pids to keep per-window time breakdowns for", flagset.Parses("a pid list", parsePids))
	maskSpec := flagset.New(p.fs, "mask", "", `initial trace mask pushed to every producer that connects ("all", a hex literal, or major names like "ctrl,sched,lock")`, traceMask.Or(""))
	p.fs.StringVar(&so.AggHTTP, "agg-http", "", "federate: heartbeat to this traceaggd HTTP base URL (e.g. http://127.0.0.1:7053)")
	p.fs.StringVar(&so.Name, "name", "", "federate: stable shard name (default: the -listen address)")
	p.fs.StringVar(&so.Advertise, "advertise", "", "federate: producer-facing address announced on the ring (default: the -listen address)")
	flagset.Var(p.fs, &so.HeartbeatEvery, "heartbeat", time.Second, "federate: heartbeat period", flagset.Over[time.Duration](0))
	if code, ok := flagset.Parse(p.fs, args); !ok {
		return code
	}
	if *storeURL != "" && *spillPath == "" {
		return p.usage("-store uploads the spill: it needs -spill")
	}
	var fedFlags []string
	p.fs.Visit(func(f *flag.Flag) {
		if so.AggHTTP == "" && slices.Contains([]string{"name", "advertise", "heartbeat"}, f.Name) {
			fedFlags = append(fedFlags, "-"+f.Name)
		}
	})
	if len(fedFlags) > 0 {
		return p.usage("federating needs -agg-http (set: %s)", strings.Join(fedFlags, ", "))
	}
	opt.WatchPids, _ = parsePids(*watch)
	var err error
	var spill *os.File
	if *spillPath != "" {
		if spill, err = os.Create(*spillPath); err != nil {
			return p.fail(err)
		}
		defer spill.Close()
		opt.Spill = spill
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return p.fail(err)
	}
	defer ln.Close()
	webLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return p.fail(err)
	}
	defer webLn.Close()

	c := live.NewCollector(opt)
	mux, drain := c.Mux(), c.Drain
	// Federated, a shard heartbeats beside the collector: the beats keep it
	// on the ring under the address the listener is bound to, and their
	// replies fan the aggregator's mask down to this collector's producers.
	var shard *fed.Shard
	if so.AggHTTP != "" {
		bound := ln.Addr().String()
		so.Name, so.Advertise, so.HTTP = cmp.Or(so.Name, bound), cmp.Or(so.Advertise, bound), webLn.Addr().String()
		if shard, err = fed.NewShard(c, so); err != nil {
			return p.usage("%v", err)
		}
		mux.Handle("/fed/shard", shard)
		drain = shard.Drain
	}
	if *maskSpec != "" {
		mask, _ := event.ParseMask(*maskSpec)
		c.SetMask(mask, 0)
		p.sayMask(mask)
	}
	srv := relay.Serve(ln, c.Handler())
	p.serve(webLn, mux)
	p.say("producers on %s, http on %s", srv.Addr(), webLn.Addr())

	p.wait(ctx, ", draining")
	srv.CloseNow()
	if err := drain(); err != nil {
		p.warn("spill: %v", err)
	}
	if spill != nil {
		if err := spill.Close(); err != nil {
			p.warn("spill: %v", err)
		}
	}
	p.closeWeb()

	snap := c.Snapshot()
	var blocks, events, garbled, stuck uint64
	for _, pr := range snap.Producers {
		blocks += pr.Blocks
		events += pr.Events
		garbled += pr.Garbled
		stuck += pr.StuckSeals
	}
	p.say("%d producers, %d blocks, %d events (%d garbled, %d stuck-seal blocks)",
		len(snap.Producers), blocks, events, garbled, stuck)
	if *spillPath != "" {
		p.say("spilled to %s", *spillPath)
	}
	if *storeURL != "" {
		if err := uploadSpill(*storeURL, *storeTenant, *spillPath); err != nil {
			p.warn("store upload: %v", err)
		} else {
			p.say("spill uploaded to %s (tenant %s)", *storeURL, *storeTenant)
		}
	}
	for _, reason := range slices.Sorted(maps.Keys(snap.Disconnects)) {
		p.say("disconnects %s: %d", reason, snap.Disconnects[reason])
	}
	if shard != nil {
		st := shard.Stats()
		p.say("heartbeats %d ok, %d failed; %d mask frames fanned down",
			st.HeartbeatsOK, st.HeartbeatsErr, st.CtrlMaskFrames)
	}
	return 0
}

// parsePids reads a -watch list: comma-separated pids, or none.
func parsePids(s string) (pids []uint64, err error) {
	if s == "" {
		return nil, nil
	}
	for _, f := range strings.Split(s, ",") {
		pid, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad pid %q: %v", f, err)
		}
		pids = append(pids, pid)
	}
	return pids, nil
}

// uploadSpill hands the drained spill to a tracestored daemon: the
// collector keeps no long-term state, the store owns retention and
// queries from here on.
func uploadSpill(base, tenant, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	u := strings.TrimRight(base, "/") + "/ingest?" + url.Values{"tenant": {tenant}}.Encode()
	resp, err := http.Post(u, "application/octet-stream", f)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}
