package daemon

import (
	"context"
	"io"
	"os"
	"time"

	"k42trace/internal/event"
	"k42trace/internal/faultinject"
	"k42trace/internal/shm"
)

// Shmlog attaches to a ktraced segment and logs from this process: test
// events round-robin, the synthetic workload (-workload), or one
// reservation that is never committed (-hang), held until the process is
// killed or ctx is cancelled. Status 1 when nothing was logged.
func Shmlog(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	p := newProc("shmlog", stdout, stderr)
	seg := p.fs.String("seg", "", "segment file to attach to")
	cpu := p.fs.Int("cpu", -1, "CPU slot to log on (-1: round-robin over all)")
	n := p.fs.Int("n", 10000, "events (default mode) or workload rounds (-workload)")
	pid := p.fs.Uint64("pid", uint64(os.Getpid()), "logical pid stamped into events")
	workload := p.fs.Bool("workload", false, "run the synthetic sched/syscall/lock workload")
	sleep := p.fs.Duration("sleep", 0, "pause between events (rate limiting)")
	hang := p.fs.Bool("hang", false, "reserve one event, never commit it, and block until killed (fault injection)")
	payload := p.fs.Int("payload", 3, "with -hang: payload words of the dead reservation")
	if code, ok := p.parse(args); !ok {
		return code
	}
	if *seg == "" {
		return p.usage("-seg is required")
	}
	if *cpu < -1 {
		return p.usage("-cpu %d: want a CPU slot, or -1 for round-robin", *cpu)
	}
	if *payload < 0 {
		return p.usage("-payload %d: want 0 or more words", *payload)
	}
	cl, err := shm.Attach(*seg)
	if err != nil {
		return p.fail(err)
	}
	if *cpu >= cl.NumCPUs() {
		cl.Detach()
		return p.usage("-cpu %d: the segment has %d CPU slots", *cpu, cl.NumCPUs())
	}
	p.say("attached to %s as client slot %d (pid %d)", *seg, cl.Slot(), os.Getpid())
	one := max(*cpu, 0) // the slot of the modes that log on one

	if *hang {
		words, ok := cl.CPU(one).ReserveHang(event.MajorTest, 9, *payload)
		if !ok {
			cl.Detach()
			p.warn("hang reservation failed (masked, dropped or too large)")
			return 1
		}
		p.say("hung with %d uncommitted words, waiting for SIGKILL", words)
		<-ctx.Done() // the way out is the kill — that is the point
		return 1
	}

	start := time.Now()
	logged := 0
	if *workload {
		logged = faultinject.SyntheticWorkload(cl.CPU(one), *pid, *n)
	} else {
		for i := 0; i < *n; i++ {
			slot := *cpu
			if slot < 0 {
				slot = i % cl.NumCPUs()
			}
			if cl.CPU(slot).Log2(event.MajorTest, 1, uint64(i), *pid) {
				logged++
			}
			if *sleep > 0 {
				time.Sleep(*sleep)
			}
		}
	}
	el := time.Since(start)
	if err := cl.Detach(); err != nil {
		return p.fail(err)
	}
	p.say("logged %d events in %v (%.0f ev/s)", logged, el.Round(time.Millisecond), float64(logged)/el.Seconds())
	if logged == 0 {
		return 1
	}
	return 0
}
