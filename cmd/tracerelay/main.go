// Command tracerelay is the relayfs-style network transport: in collect
// mode it listens for trace streams and saves them as a trace file; in
// send mode it runs a traced SDET workload and streams the buffers to a
// collector as they seal, demonstrating that "this event log may be ...
// streamed over the network".
//
// The sender can also inject transport chaos — dropped, duplicated,
// reordered, torn, bit-flipped, or zeroed blocks, driven by a fixed seed —
// to exercise a collector's salvage path end to end (pair with
// tracecheck -salvage on the collected file).
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
//	tracerelay -collect -listen 127.0.0.1:7042 -o collected.ktr
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
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	ktrace "k42trace"
	"k42trace/internal/faultinject"
	"k42trace/internal/fed"
	"k42trace/internal/ksim"
	"k42trace/internal/relay"
	"k42trace/internal/sdet"
)

func main() {
	collect := flag.Bool("collect", false, "run as collector")
	listen := flag.String("listen", "127.0.0.1:7042", "collector listen address")
	out := flag.String("o", "collected.ktr", "collector output file")
	send := flag.String("send", "", "stream a traced SDET run to this collector address")
	cpus := flag.Int("cpus", 4, "sender: simulated processors")
	config := flag.String("config", "coarse", "sender: tuned or coarse")
	chaosSeed := flag.Int64("chaos-seed", 1, "sender: fault-injection seed")
	drop := flag.Float64("drop", 0, "sender: probability of dropping each block in transit")
	dup := flag.Float64("dup", 0, "sender: probability of duplicating each block")
	reorder := flag.Int("reorder", 0, "sender: reorder window in blocks (0 or 1 = off)")
	tear := flag.Float64("tear", 0, "sender: probability of tearing a block write")
	fflip := flag.Float64("flip", 0, "sender: probability of flipping one bit in a block")
	zero := flag.Float64("zero", 0, "sender: probability of zeroing a span of a block")
	reconnect := flag.Bool("reconnect", false, "sender: give each block -attempts dial/write attempts instead of one: redial with backoff if the collector drops, re-sending the failed block")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "sender: initial reconnect backoff (doubles up to 2s)")
	attempts := flag.Int("attempts", 8, "sender: dial/write attempts per block before giving up")
	fedURL := flag.String("fed", "", "sender: resolve the collector through this traceaggd HTTP base URL's consistent-hash ring (implies -reconnect)")
	key := flag.String("key", "", "sender: stable ring key for -fed (default hostname-pid)")
	remoteControl := flag.Bool("remote-control", false, "sender: apply mask updates pushed back by the collector (implies -reconnect)")
	loadgen := flag.Bool("loadgen", false, "sender: stream a steady synthetic workload instead of a finite SDET run")
	duration := flag.Duration("duration", 10*time.Second, "sender: how long -loadgen runs")
	rate := flag.Int("rate", 30000, "sender: -loadgen target logging attempts per second")
	flag.Parse()
	faults := faultinject.StreamFaults{
		Seed: *chaosSeed, DropProb: *drop, DupProb: *dup, ReorderWindow: *reorder,
		TearProb: *tear, FlipProb: *fflip, ZeroProb: *zero,
	}
	chaos := *drop > 0 || *dup > 0 || *reorder > 1 || *tear > 0 || *fflip > 0 || *zero > 0

	switch {
	case *collect:
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracerelay:", err)
			os.Exit(1)
		}
		h, st := ktrace.RelaySaveHandler(f)
		srv, err := ktrace.RelayListen(*listen, h)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracerelay:", err)
			os.Exit(1)
		}
		fmt.Printf("collecting on %s into %s (ctrl-C to stop)\n", srv.Addr(), *out)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "tracerelay:", err)
		}
		f.Close()
		blocks, anoms := st.Snapshot()
		fmt.Printf("collected %d blocks (%d anomalous), skipped %d damaged\n", blocks, anoms, st.Damaged)
	case *send != "" || *fedURL != "":
		useReliable := *reconnect || *remoteControl || *fedURL != ""
		var tr *ktrace.Tracer
		var runWorkload func() (string, error)
		if *loadgen {
			tr = ktrace.MustNew(ktrace.Config{
				CPUs: *cpus, BufWords: 16384, NumBufs: 8, Mode: ktrace.Stream})
			tr.EnableAll()
			runWorkload = func() (string, error) {
				attempted, logged := runLoadgen(tr, *duration, *rate)
				return fmt.Sprintf("loadgen: %d logging attempts, %d events logged over %s",
					attempted, logged, *duration), nil
			}
		} else {
			k, ktr, err := ksim.NewTracedKernel(
				ksim.Config{CPUs: *cpus, Tuned: *config == "tuned", SamplePeriod: 100_000},
				ktrace.Config{BufWords: 16384, NumBufs: 8, Mode: ktrace.Stream})
			if err != nil {
				fmt.Fprintln(os.Stderr, "tracerelay:", err)
				os.Exit(1)
			}
			ktr.EnableAll()
			tr = ktr
			runWorkload = func() (string, error) {
				res, err := k.Run(sdet.Workload(*cpus, sdet.DefaultParams()))
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("streamed %d events (throughput %.0f scripts/hour)",
					res.TraceEvents, res.Throughput()), nil
			}
		}
		var inj *faultinject.Injector
		var wrap func(io.Writer) io.Writer
		if chaos {
			wrap = func(w io.Writer) io.Writer {
				inj = faultinject.NewInjector(w, faults)
				return inj
			}
		}
		done := make(chan error, 1)
		var rstats relay.ReliableStats
		go func() {
			// One sender: without a reason to redial, a block gets one attempt.
			opt := relay.ReliableOptions{Wrap: wrap, InitialBackoff: *backoff, MaxAttempts: 1}
			if useReliable {
				opt.MaxAttempts = *attempts
			}
			if *remoteControl {
				opt.OnControl = relay.MaskApplier(tr)
			}
			if *fedURL != "" {
				// Every dial — including each reconnect — re-resolves the
				// owner, so a shard death rehashes this producer onto the
				// survivor the ring assigns it to.
				k := *key
				if k == "" {
					host, _ := os.Hostname()
					k = fmt.Sprintf("%s-%d", host, os.Getpid())
				}
				opt.Resolve = fed.RingResolver(*fedURL, k)
			}
			var err error
			rstats, err = relay.SendReliable(tr, *send, opt)
			done <- err
		}()
		summary, err := runWorkload()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracerelay:", err)
			os.Exit(1)
		}
		finalMask := tr.Mask()
		tr.Stop()
		if err := <-done; err != nil {
			fmt.Fprintln(os.Stderr, "tracerelay:", err)
			os.Exit(1)
		}
		fmt.Println(summary)
		if useReliable {
			fmt.Printf("reliable: %d blocks, %d dials, %d retries, %d dropped\n",
				rstats.Blocks, rstats.Dials, rstats.Retries, rstats.Dropped)
		}
		if *remoteControl {
			fmt.Printf("remote-control: %d control frames, %d mask applies, final mask %#x\n",
				rstats.ControlFrames, tr.MaskApplies(), finalMask)
		}
		if inj != nil {
			fmt.Printf("chaos (seed %d): %s\n", *chaosSeed, inj.Stats())
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: tracerelay -collect [-listen addr -o file] | -send addr")
		flag.PrintDefaults()
		os.Exit(2)
	}
}

// runLoadgen logs a steady mix of MajorTest, MajorMem, and MajorSched
// events round-robin across CPUs for the given duration, pacing itself to
// roughly rate attempts per second. Every major is attempted every cycle
// regardless of the current mask — that is the point: when a collector
// narrows the mask remotely, the disabled majors' attempts keep costing
// only the mask check, and their events visibly stop arriving. Returns
// (attempts, events actually logged).
func runLoadgen(tr *ktrace.Tracer, d time.Duration, rate int) (attempted, logged uint64) {
	cpus := tr.NumCPUs()
	perTick := rate / 1000 / 3 // cycles per 1ms tick; 3 attempts per cycle
	if perTick < 1 {
		perTick = 1
	}
	deadline := time.Now().Add(d)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var n uint64
	for time.Now().Before(deadline) {
		<-tick.C
		for i := 0; i < perTick; i++ {
			cpu := tr.CPU(int(n) % cpus)
			if cpu.Log1(ktrace.MajorTest, 100, n) {
				logged++
			}
			if cpu.Log2(ktrace.MajorMem, 200, n, uint64(cpus)) {
				logged++
			}
			if cpu.Log1(ktrace.MajorSched, 300, n) {
				logged++
			}
			attempted += 3
			n++
		}
	}
	return attempted, logged
}
