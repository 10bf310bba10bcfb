package daemon

import (
	"context"
	"io"
	"net"
	"time"

	"k42trace/internal/event"
	"k42trace/internal/fed"
)

// Traceaggd is the federation root: shards heartbeat to its HTTP surface
// and take the desired mask from the replies, producers resolve owners from
// its ring. Its drain closes the HTTP server, so no heartbeat lands after
// it, and then prints the fleet.
func Traceaggd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	p := newProc("traceaggd", stdout, stderr)
	var opt fed.AggOptions
	httpAddr := p.fs.String("http", "127.0.0.1:7053", "federation HTTP address")
	p.fs.DurationVar(&opt.MemberTTL, "member-ttl", 3*time.Second, "expire shards whose heartbeats stop for this long")
	maskSpec := p.fs.String("mask", "", `initial trace mask fanned down to every shard ("all", a hex literal, or major names)`)
	if code, ok := p.parse(args); !ok {
		return code
	}
	if opt.MemberTTL <= 0 {
		return p.usage("-member-ttl %v: want a positive period", opt.MemberTTL)
	}
	var mask uint64
	if *maskSpec != "" {
		var err error
		if mask, err = event.ParseMask(*maskSpec); err != nil {
			return p.usage("bad -mask: %v", err)
		}
	}
	webLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return p.fail(err)
	}
	defer webLn.Close()
	a := fed.NewAggregator(opt)
	if *maskSpec != "" {
		a.SetMask(mask)
		p.sayMask(mask)
	}
	p.serve(webLn, a.Mux())
	p.say("http on %s", webLn.Addr())

	p.wait(ctx, ", draining")
	p.closeWeb()
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
