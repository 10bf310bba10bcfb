package daemon

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/faultinject"
	"k42trace/internal/fed"
	"k42trace/internal/ksim"
	"k42trace/internal/relay"
	"k42trace/internal/sdet"
)

// Tracerelay is the producer end of the network transport: -send (or
// -fed) runs a traced workload — a finite SDET run, or -loadgen until
// -duration or cancel — streams its buffers as they seal to a collector
// (tracecolld, traceaggd, or tracestored -relay), and is done when the last
// one is out.
func Tracerelay(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	p := newProc("tracerelay", stdout, stderr)
	var faults faultinject.StreamFaults
	send := p.fs.String("send", "", "stream a traced SDET run to this collector address")
	cpus := p.fs.Int("cpus", 4, "simulated processors")
	config := p.fs.String("config", "coarse", "tuned or coarse")
	p.fs.Int64Var(&faults.Seed, "chaos-seed", 1, "fault-injection seed")
	p.fs.Float64Var(&faults.DropProb, "drop", 0, "probability of dropping each block in transit")
	p.fs.Float64Var(&faults.DupProb, "dup", 0, "probability of duplicating each block")
	p.fs.IntVar(&faults.ReorderWindow, "reorder", 0, "reorder window in blocks (0 or 1 = off)")
	p.fs.Float64Var(&faults.TearProb, "tear", 0, "probability of tearing a block write")
	p.fs.Float64Var(&faults.FlipProb, "flip", 0, "probability of flipping one bit in a block")
	p.fs.Float64Var(&faults.ZeroProb, "zero", 0, "probability of zeroing a span of a block")
	reconnect := p.fs.Bool("reconnect", false, "give each block -attempts dial/write attempts instead of one: redial with backoff if the collector drops, re-sending the failed block")
	backoff := p.fs.Duration("backoff", 50*time.Millisecond, "initial reconnect backoff (doubles up to 2s)")
	attempts := p.fs.Int("attempts", 8, "dial/write attempts per block before giving up")
	fedURL := p.fs.String("fed", "", "resolve the collector through this traceaggd HTTP base URL's consistent-hash ring (implies -reconnect)")
	key := p.fs.String("key", "", "stable ring key for -fed (default hostname-pid)")
	remoteControl := p.fs.Bool("remote-control", false, "apply mask updates pushed back by the collector (implies -reconnect)")
	loadgen := p.fs.Bool("loadgen", false, "stream a steady synthetic workload instead of a finite SDET run")
	duration := p.fs.Duration("duration", 10*time.Second, "how long -loadgen runs")
	rate := p.fs.Int("rate", 30000, "-loadgen target logging attempts per second")
	if code, ok := p.parse(args); !ok {
		return code
	}
	if *send == "" && *fedURL == "" {
		fmt.Fprintln(p.stderr, "usage: tracerelay -send addr | -fed url")
		p.fs.PrintDefaults()
		return 2
	}
	if *config != "tuned" && *config != "coarse" {
		return p.usage("bad -config %q: want tuned or coarse", *config)
	}

	tcfg := core.Config{CPUs: *cpus, BufWords: 16384, NumBufs: 8, Mode: core.Stream}
	var k *ksim.Kernel
	var tr *core.Tracer
	var err error
	if *loadgen {
		tr, err = core.New(tcfg)
	} else {
		k, tr, err = ksim.NewTracedKernel(ksim.Config{CPUs: *cpus, Tuned: *config == "tuned", SamplePeriod: 100_000}, tcfg)
	}
	if err != nil {
		return p.fail(err)
	}
	tr.EnableAll()

	// One sender: without a reason to redial, a block gets one attempt.
	reliable := *reconnect || *remoteControl || *fedURL != ""
	opt := relay.ReliableOptions{InitialBackoff: *backoff, MaxAttempts: 1}
	if reliable {
		opt.MaxAttempts = *attempts
	}
	var inj *faultinject.Injector
	if f := faults; f.DropProb > 0 || f.DupProb > 0 || f.ReorderWindow > 1 || f.TearProb > 0 || f.FlipProb > 0 || f.ZeroProb > 0 {
		opt.Wrap = func(w io.Writer) io.Writer {
			inj = faultinject.NewInjector(w, faults)
			return inj
		}
	}
	if *remoteControl {
		opt.OnControl = relay.MaskApplier(tr)
	}
	if *fedURL != "" {
		// Every dial — including each reconnect — re-resolves the owner, so
		// a shard death rehashes this producer onto the survivor the ring
		// assigns it to.
		if *key == "" {
			host, _ := os.Hostname()
			*key = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		opt.Resolve = fed.RingResolver(*fedURL, *key)
	}
	var rstats relay.ReliableStats
	sent := make(chan error, 1)
	go func() {
		var err error
		rstats, err = relay.SendReliable(tr, *send, opt)
		sent <- err
	}()
	var summary string
	if *loadgen {
		attempted, logged := runLoadgen(ctx, tr, *duration, *rate)
		summary = fmt.Sprintf("loadgen: %d logging attempts, %d events logged over %s", attempted, logged, *duration)
	} else if res, rerr := k.Run(sdet.Workload(*cpus, sdet.DefaultParams())); rerr != nil {
		err = rerr
	} else {
		summary = fmt.Sprintf("streamed %d events (throughput %.0f scripts/hour)", res.TraceEvents, res.Throughput())
	}
	finalMask := tr.Mask()
	tr.Stop()
	if serr := <-sent; err == nil {
		err = serr
	}
	if err != nil {
		return p.fail(err)
	}
	fmt.Fprintln(p.stdout, summary)
	if reliable {
		fmt.Fprintf(p.stdout, "reliable: %d blocks, %d dials, %d retries, %d dropped\n",
			rstats.Blocks, rstats.Dials, rstats.Retries, rstats.Dropped)
	}
	if *remoteControl {
		fmt.Fprintf(p.stdout, "remote-control: %d control frames, %d mask applies, final mask %#x\n",
			rstats.ControlFrames, tr.MaskApplies(), finalMask)
	}
	if inj != nil {
		fmt.Fprintf(p.stdout, "chaos (seed %d): %s\n", faults.Seed, inj.Stats())
	}
	return 0
}

// runLoadgen logs a steady mix of MajorTest, MajorMem, and MajorSched
// events round-robin across CPUs until d has passed or ctx is cancelled,
// pacing itself to roughly rate attempts per second. Every major is
// attempted every cycle regardless of the current mask — that is the point:
// when a collector narrows the mask remotely, the disabled majors' attempts
// keep costing only the mask check, and their events visibly stop arriving.
// Returns (attempts, events actually logged).
func runLoadgen(ctx context.Context, tr *core.Tracer, d time.Duration, rate int) (attempted, logged uint64) {
	cpus := tr.NumCPUs()
	perTick := max(rate/1000/3, 1) // cycles per 1ms tick; 3 attempts per cycle
	deadline := time.Now().Add(d)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var n uint64
	for time.Now().Before(deadline) && ctx.Err() == nil {
		<-tick.C
		for i := 0; i < perTick; i++ {
			cpu := tr.CPU(int(n) % cpus)
			if cpu.Log1(event.MajorTest, 100, n) {
				logged++
			}
			if cpu.Log2(event.MajorMem, 200, n, uint64(cpus)) {
				logged++
			}
			if cpu.Log1(event.MajorSched, 300, n) {
				logged++
			}
			attempted += 3
			n++
		}
	}
	return attempted, logged
}
