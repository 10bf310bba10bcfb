package daemon

import (
	"context"
	"io"
	"time"

	"k42trace/internal/fed"
	"k42trace/internal/live"
)

// Traceaggd is the federation root: shard uplinks dial its relay listener,
// shards heartbeat to its HTTP surface, producers resolve owners from its
// ring. It is a collector (collect) whose core also sweeps the membership;
// after the drain it prints the fleet.
func Traceaggd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	p := newProc("traceaggd", stdout, stderr)
	var opt fed.AggOptions
	listen := p.fs.String("listen", "127.0.0.1:7052", "shard uplink listen address")
	httpAddr := p.fs.String("http", "127.0.0.1:7053", "federation HTTP address")
	p.fs.IntVar(&opt.CPUSlots, "cpu-slots", 4096, "total remapped CPU slots across all shard uplinks")
	p.fs.DurationVar(&opt.MemberTTL, "member-ttl", 3*time.Second, "expire shards whose heartbeats stop for this long")
	maskSpec := p.fs.String("mask", "", `initial trace mask fanned down to every shard ("all", a hex literal, or major names)`)
	if code, ok := p.parse(args); !ok {
		return code
	}
	var a *fed.Aggregator
	code := p.collect(ctx, *listen, *httpAddr, "", *maskSpec, "uplinks on %s, http on %s", nil,
		func(string, string) (collectorCore, *live.Collector, error) {
			a = fed.NewAggregator(opt)
			return a, a.Collector(), nil
		})
	if a == nil {
		return code
	}

	doc := a.Overview()
	states := map[fed.MemberState]int{}
	for _, m := range doc.Members {
		states[m.State]++
	}
	p.say("%d shards seen (%d active, %d left, %d expired), %d processes in merged overview",
		len(doc.Members), states[fed.StateActive], states[fed.StateLeft], states[fed.StateExpired], len(doc.Overview))
	for _, m := range doc.Members {
		p.say("shard %s (%s) %s: %d producers, %d blocks, %d events",
			m.Name, m.Addr, m.State, m.Producers, m.Blocks, m.Events)
	}
	return 0
}
