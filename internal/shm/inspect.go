package shm

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"k42trace/internal/core"
)

// Info is a point-in-time snapshot of a live segment, taken through a
// read-only mapping: "this event log may be examined while the system is
// running" — producers and the daemon keep going while we look.
type Info struct {
	Path      string
	Geometry  Geometry
	Version   uint64
	State     string
	ClockMode string
	Mask      uint64
	// BaseUnixNano is the wall-clock instant of segment tick 0.
	BaseUnixNano int64
	CreateNano   int64
	// Doorbell is the seal count producers have rung; AgentWaiting is
	// whether the daemon was parked on it (or about to be) at snapshot
	// time.
	Doorbell     uint64
	AgentWaiting bool
	Clients      []ClientInfo
	CPUs         []CPUInfo
}

// ClientInfo describes one occupied client-table slot. The raw RegNano
// and LeaseNano stamps are in the segment's lease timebase (monotonic
// ticks); the Age fields are computed against the same timebase at
// snapshot time.
type ClientInfo struct {
	Slot      int
	Pid       int
	Reaping   bool // tombstoned: mid-write-off by the daemon
	RegNano   int64
	LeaseNano int64
	// RegAgeNano and LeaseAgeNano are how long ago (in nanoseconds) the
	// client attached and was last observed alive.
	RegAgeNano   int64
	LeaseAgeNano int64
	// MaskOverride and MaskEff are the client's per-client mask words.
	// MaskEff is what its arenas
	// actually gate on: the global mask AND the override.
	MaskOverride uint64
	MaskEff      uint64
	// Inflight is the client's per-CPU in-flight logging counts.
	Inflight []uint64
}

// CPUInfo describes one CPU slot's fill state.
type CPUInfo struct {
	CPU      int
	Index    uint64 // free-running reservation index, words
	Inflight uint64 // in-flight loggers, all clients
	Slots    []SlotInfo
	Stats    core.Stats
}

// SlotInfo describes one buffer slot.
type SlotInfo struct {
	State     string
	Start     uint64
	Committed uint64
}

func clockModeName(mode uint64) string {
	if mode == clockDeterministic {
		return "deterministic"
	}
	return "monotonic"
}

// Inspect snapshots the segment at path without attaching as a client or
// disturbing producers (the mapping is read-only). The snapshot is not
// atomic across words — counters may be mid-update — which is inherent to
// live inspection and fine for operator eyes.
func Inspect(path string) (*Info, error) {
	s, err := openSegment(path, true)
	if err != nil {
		return nil, err
	}
	defer s.close()
	lay := s.lay
	info := &Info{
		Path:         path,
		Geometry:     lay.geo,
		Version:      s.words[hdrVersion],
		State:        stateName(s.state()),
		ClockMode:    clockModeName(s.words[hdrClockMode]),
		Mask:         wordAtomic(s.words, hdrMask).Load(),
		BaseUnixNano: int64(s.words[hdrBaseUnixNano]),
		CreateNano:   int64(s.words[hdrCreateNano]),
		Doorbell:     wordAtomic(s.words, hdrDoorbell).Load(),
		AgentWaiting: wordAtomic(s.words, hdrAgentWait).Load() != 0,
	}
	// Client ages must be computed in the timebase the stamps were written
	// in — the segment's lease timebase — not raw wall time: against
	// monotonic-tick stamps, wall-clock arithmetic yields ages off by the
	// whole unix epoch.
	now := int64(s.leaseNow())
	for slot := 0; slot < lay.geo.MaxClients; slot++ {
		pid := wordAtomic(s.words, lay.clientWord(slot, clientPid)).Load()
		if pid == 0 {
			continue
		}
		ci := ClientInfo{
			Slot:         slot,
			Pid:          int(pid),
			Reaping:      pid == pidTombstone,
			RegNano:      int64(wordAtomic(s.words, lay.clientWord(slot, clientRegNano)).Load()),
			LeaseNano:    int64(wordAtomic(s.words, lay.clientWord(slot, clientLease)).Load()),
			MaskOverride: wordAtomic(s.words, lay.clientWord(slot, clientMaskOverride)).Load(),
			MaskEff:      wordAtomic(s.words, lay.clientWord(slot, clientMaskEff)).Load(),
			Inflight:     make([]uint64, lay.geo.CPUs),
		}
		ci.RegAgeNano = now - ci.RegNano
		ci.LeaseAgeNano = now - ci.LeaseNano
		if ci.Reaping {
			ci.Pid = -1
		}
		for cpu := range ci.Inflight {
			ci.Inflight[cpu] = atomic.LoadUint64(&s.words[lay.inflightCell(slot, cpu)])
		}
		info.Clients = append(info.Clients, ci)
	}
	clk := segClock(s)
	for cpu := 0; cpu < lay.geo.CPUs; cpu++ {
		a, err := buildArena(s, cpu, nil, nil, wordAtomic(s.words, hdrMask), nil, clk)
		if err != nil {
			return nil, err
		}
		ci := CPUInfo{
			CPU:      cpu,
			Index:    a.Index(),
			Inflight: a.InflightTotal(),
			Stats:    a.Stats(),
		}
		for sl := 0; sl < lay.geo.NumBufs; sl++ {
			ci.Slots = append(ci.Slots, SlotInfo{
				State:     core.SlotStateName(a.SlotState(sl)),
				Start:     a.SlotStart(sl),
				Committed: a.SlotCommitted(sl),
			})
		}
		info.CPUs = append(info.CPUs, ci)
	}
	return info, nil
}

// Format writes the snapshot as the text report ktrace check -shm prints.
func (i *Info) Format(w io.Writer) {
	g := i.Geometry
	fmt.Fprintf(w, "segment %s (version %d)\n", i.Path, i.Version)
	fmt.Fprintf(w, "  geometry: %d cpu x %d bufs x %d words (%d KiB trace memory), %d client slots\n",
		g.CPUs, g.NumBufs, g.BufWords, g.CPUs*g.NumBufs*g.BufWords*8/1024, g.MaxClients)
	fmt.Fprintf(w, "  state: %s  mask: %#016x  clock: %s (created %s)\n",
		i.State, i.Mask, i.ClockMode, time.Unix(0, i.CreateNano).Format(time.RFC3339))
	agent := "awake"
	if i.AgentWaiting {
		agent = "waiting"
	}
	fmt.Fprintf(w, "  doorbell: %d rings, agent %s\n", i.Doorbell, agent)
	fmt.Fprintf(w, "  clients: %d attached\n", len(i.Clients))
	for _, c := range i.Clients {
		pid := fmt.Sprintf("pid %d", c.Pid)
		if c.Reaping {
			pid = "reaping"
		}
		fmt.Fprintf(w, "    slot %d: %s, attached %s, lease %s ago, inflight %v",
			c.Slot, pid,
			time.Duration(c.RegAgeNano).Round(time.Millisecond),
			time.Duration(c.LeaseAgeNano).Round(time.Millisecond),
			c.Inflight)
		fmt.Fprintf(w, ", eff mask %#016x", c.MaskEff)
		if c.MaskOverride != ^uint64(0) {
			fmt.Fprintf(w, " (narrowed, override %#016x)", c.MaskOverride)
		}
		fmt.Fprintln(w)
	}
	for _, c := range i.CPUs {
		fmt.Fprintf(w, "  cpu %d: index %d (%d generations), inflight %d\n",
			c.CPU, c.Index, c.Index/uint64(g.BufWords), c.Inflight)
		for sl, s := range c.Slots {
			fmt.Fprintf(w, "    buf %d: %-8s start %-10d committed %d/%d\n",
				sl, s.State, s.Start, s.Committed, g.BufWords)
		}
		st := c.Stats
		fmt.Fprintf(w, "    stats: events %d words %d seals %d (stuck %d) dropped %d retries %d fillers %d\n",
			st.Events, st.Words, st.Seals, st.StuckSeals, st.Dropped, st.Retries, st.FillerEvents)
	}
}
