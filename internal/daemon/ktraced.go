package daemon

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"

	"k42trace/internal/event"
	"k42trace/internal/flagset"
	"k42trace/internal/relay"
	"k42trace/internal/shm"
	"k42trace/internal/stream"
)

// adminMux is ktraced's mask control plane.
func adminMux(ag *shm.Agent) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /masks", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "mask %#016x (%s)\n", ag.Mask(), event.MaskString(ag.Mask()))
		info, err := shm.Inspect(ag.Path())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for _, c := range info.Clients {
			fmt.Fprintf(w, "slot %d pid %d override %#016x eff %#016x\n",
				c.Slot, c.Pid, c.MaskOverride, c.MaskEff)
		}
	})
	mux.HandleFunc("POST /mask", func(w http.ResponseWriter, r *http.Request) {
		mask, err := event.ParseMask(r.FormValue("mask"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if slotStr := r.FormValue("client"); slotStr != "" {
			slot, err := strconv.Atoi(slotStr)
			if err != nil {
				http.Error(w, "bad client slot: "+err.Error(), http.StatusBadRequest)
				return
			}
			if err := ag.SetClientMask(slot, mask); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			_, eff := ag.ClientMask(slot)
			fmt.Fprintf(w, "slot %d override %#016x eff %#016x\n", slot, mask, eff)
			return
		}
		ag.SetMask(mask)
		fmt.Fprintf(w, "mask %#016x (%s)\n", mask, event.MaskString(mask))
	})
	return mux
}

// pow2 is the domain of a segment's buffer geometry: 0 for the default, or
// a power of two of at least lo.
func pow2(lo int) flagset.Domain[int] {
	return flagset.Where(fmt.Sprintf("0 or a power of two >= %d", lo), func(n int) bool {
		return n == 0 || n >= lo && n&(n-1) == 0
	})
}

// Ktraced owns a shared-memory segment: it drains sealed buffers into
// -spill or up -relay, writes off dead clients, and on cancel seals what
// remains. Drain order: stop the agent, wait for the drain to write the last
// buffer, close the admin server, close the segment. Status 1 also when a
// drained block was anomalous — a client died with space reserved.
func Ktraced(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	p := newProc("ktraced", stdout, stderr)
	var g shm.Geometry
	seg := p.fs.String("seg", "", "segment file to create and own (tmpfs recommended)")
	flagset.Var(p.fs, &g.CPUs, "cpus", 2, "processor slots", flagset.In(1, 1<<12))
	flagset.Var(p.fs, &g.BufWords, "bufwords", 0, "buffer size in words (0 = default)", pow2(16))
	flagset.Var(p.fs, &g.NumBufs, "numbufs", 0, "buffers per CPU (0 = default)", pow2(2))
	flagset.Var(p.fs, &g.MaxClients, "max-clients", 64, "client table capacity", flagset.In(1, 1<<16))
	spill := p.fs.String("spill", "", "write drained buffers to this trace file")
	relayAddr := p.fs.String("relay", "", "stream drained buffers to this collector address instead")
	maskSpec := flagset.New(p.fs, "mask", "all", `trace mask ("all", hex literal, or major names like "sched,lock")`, traceMask)
	admin := p.fs.String("admin", "", "serve the mask control plane on this HTTP address (e.g. 127.0.0.1:7043)")
	rm := p.fs.Bool("rm", false, "remove the segment file on exit")
	if code, ok := flagset.Parse(p.fs, args); !ok {
		return code
	}
	if *seg == "" {
		return p.usage("-seg is required")
	}
	if (*spill == "") == (*relayAddr == "") {
		return p.usage("exactly one of -spill or -relay is required")
	}
	mask, _ := event.ParseMask(*maskSpec)
	var err error
	var adminLn net.Listener
	if *admin != "" {
		if adminLn, err = net.Listen("tcp", *admin); err != nil {
			return p.fail(err)
		}
		defer adminLn.Close()
	}
	var out *os.File
	if *spill != "" {
		if out, err = os.Create(*spill); err != nil {
			return p.fail(err)
		}
		defer out.Close()
	}
	ag, err := shm.Create(*seg, g)
	if err != nil {
		return p.fail(err)
	}
	ag.SetMask(mask)
	g = ag.Geometry()
	p.say("segment %s ready: %d cpu x %d bufs x %d words, %d client slots, mask %s",
		*seg, g.CPUs, g.NumBufs, g.BufWords, g.MaxClients, event.MaskString(mask))
	if adminLn != nil {
		p.serve(adminLn, adminMux(ag))
		p.say("admin on http://%s", adminLn.Addr())
	}

	// The drain runs until Stop closes the agent's Sealed channel.
	var st stream.CaptureStats
	drained := make(chan error, 1)
	go func() {
		var err error
		if out == nil {
			var rs relay.ReliableStats
			rs, err = relay.SendReliable(ag, *relayAddr, relay.ReliableOptions{})
			st = rs.CaptureStats
		} else if st, err = stream.Capture(ag, out); err == nil {
			err = out.Close()
		}
		drained <- err
	}()

	p.wait(ctx, ": draining")
	ag.Stop()
	derr := <-drained
	p.closeWeb()
	if derr != nil {
		p.warn("drain: %v", derr)
	}
	p.say("%d blocks (%d anomalous), %d events, %d dead clients reaped",
		st.Blocks, st.Anomalies, ag.Stats().Events, ag.Reaped())
	if err := ag.Close(); err != nil {
		return p.fail(err)
	}
	if *rm {
		os.Remove(*seg)
	}
	if derr != nil || st.Anomalies > 0 {
		return 1
	}
	return 0
}
