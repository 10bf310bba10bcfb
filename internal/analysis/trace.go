package analysis

import (
	"fmt"
	"strings"
	"sync"

	"k42trace/internal/event"
	"k42trace/internal/ksim"
)

// Trace is a decoded event stream plus the naming context reconstructed
// from the stream's self-describing definition events: symbol names
// (SYMDEF), lock call chains (CHAINDEF), file names (IO_NAME), and process
// names (RUN_UL_LOADER). Tools operate on a Trace.
type Trace struct {
	Events  []event.Event
	ClockHz uint64
	Reg     *event.Registry

	Syms   map[uint64]string
	Chains map[uint64][]string
	Files  map[uint64]string
	Procs  map[uint64]string
	// ThreadPid maps thread ids to their owning process, reconstructed
	// from scheduler switch and thread-spawn events.
	ThreadPid map[uint64]uint64
	// MaskEpochs are the CtrlMaskChange markers in absorb order: the
	// instants the trace mask changed on some CPU. They delimit visibility
	// epochs — a subsystem silent after a narrowing epoch was not
	// necessarily idle, it may just have been masked out.
	MaskEpochs []MaskEpoch

	// split holds the per-CPU views of Events, which every *Parallel
	// report starts from; see perCPU.
	split struct {
		sync.Mutex
		of    []event.Event // the Events the views are of
		views []view
	}
}

// MaskEpoch is one decoded CtrlMaskChange marker.
type MaskEpoch struct {
	Time uint64 `json:"time"`
	CPU  int    `json:"cpu"`
	Mask uint64 `json:"mask"`
	Prev uint64 `json:"prev"`
}

// Build constructs a Trace from a time-merged event stream. hz is the
// trace clock rate (from the file header); reg resolves event descriptions
// (usually event.Default).
func Build(evs []event.Event, hz uint64, reg *event.Registry) *Trace {
	t := NewTrace(hz, reg)
	t.Events = evs
	t.Absorb(evs)
	return t
}

// BuildRuns is Build for a stream merged from runs the caller kept: byCPU
// are the runs, grouped by CPU in ascending order — a CPU's runs, read in
// order, being its events of evs in evs' order — as stream.MergeRuns returns
// them. The *Parallel reports then walk each CPU's runs where they lie and
// make no per-CPU positions of evs.
func BuildRuns(evs []event.Event, byCPU [][]event.Event, hz uint64, reg *event.Registry) *Trace {
	t := Build(evs, hz, reg)
	t.split.of, t.split.views = evs, runViews(byCPU)
	return t
}

// NewTrace returns an empty naming context with no events: the starting
// point for a live collector, which grows it with Absorb as blocks arrive
// instead of scanning a complete stream up front.
func NewTrace(hz uint64, reg *event.Registry) *Trace {
	hz, reg = withDefaults(hz, reg)
	return &Trace{
		ClockHz:   hz,
		Reg:       reg,
		Syms:      map[uint64]string{},
		Chains:    map[uint64][]string{},
		Files:     map[uint64]string{},
		Procs:     map[uint64]string{PidKernelID: "kernel", PidBaseServersID: "baseServers"},
		ThreadPid: map[uint64]uint64{},
	}
}

// withDefaults reads a clock rate of 0 as 1 GHz and no registry as the
// default one.
func withDefaults(hz uint64, reg *event.Registry) (uint64, *event.Registry) {
	if hz == 0 {
		hz = 1e9
	}
	if reg == nil {
		reg = event.Default
	}
	return hz, reg
}

// Absorb scans a chunk of events for the self-describing definition
// events (SYMDEF, CHAINDEF, IO_NAME, RUN_UL_LOADER, thread ownership) and
// folds them into the naming context. Build calls it once over the whole
// stream; a live collector calls it per block, so names resolve as soon
// as their definitions have arrived.
func (t *Trace) Absorb(evs []event.Event) {
	for i := range evs {
		e := &evs[i]
		switch e.Major() {
		case event.MajorSample:
			switch e.Minor() {
			case ksim.EvSymDef:
				if id, s, ok := wordAndString(e.Data); ok {
					t.Syms[id] = s
				}
			case ksim.EvChainDef:
				if id, s, ok := wordAndString(e.Data); ok {
					t.Chains[id] = strings.Split(s, " < ")
				}
			}
		case event.MajorIO:
			if e.Minor() == ksim.EvIOName {
				if id, s, ok := wordAndString(e.Data); ok {
					t.Files[id] = s
				}
			}
		case event.MajorUser:
			if e.Minor() == ksim.EvUserRunULoader && len(e.Data) >= 3 {
				// payload: creator, pid, name-string
				pid := e.Data[1]
				if s, ok := event.UnpackString(e.Data[2:]); ok {
					t.Procs[pid] = s
				}
			}
		case event.MajorSched:
			if e.Minor() == ksim.EvSchedSwitch && len(e.Data) >= 3 {
				t.ThreadPid[e.Data[2]] = e.Data[1]
			}
		case event.MajorProc:
			if e.Minor() == ksim.EvProcSpawn && len(e.Data) >= 2 {
				t.ThreadPid[e.Data[1]] = e.Data[0]
			}
		case event.MajorControl:
			if e.Minor() == event.CtrlMaskChange && len(e.Data) >= 2 {
				t.MaskEpochs = append(t.MaskEpochs, MaskEpoch{
					Time: e.Time, CPU: e.CPU, Mask: e.Data[0], Prev: e.Data[1],
				})
			}
		}
	}
}

// Well-known pids re-exported for naming.
const (
	PidKernelID      = ksim.PidKernel
	PidBaseServersID = ksim.PidBaseServers
)

// wordAndString decodes a payload of one word followed by a string.
func wordAndString(data []uint64) (uint64, string, bool) {
	if len(data) < 2 {
		return 0, "", false
	}
	s, ok := event.UnpackString(data[1:])
	return data[0], s, ok
}

// SymName resolves a symbol id.
func (t *Trace) SymName(id uint64) string {
	if s, ok := t.Syms[id]; ok {
		return s
	}
	return fmt.Sprintf("sym#%d", id)
}

// ChainFrames resolves a call-chain id, innermost frame first.
func (t *Trace) ChainFrames(id uint64) []string {
	if c, ok := t.Chains[id]; ok {
		return c
	}
	return []string{fmt.Sprintf("chain#%d", id)}
}

// fileName resolves a file id.
func (t *Trace) fileName(id uint64) string {
	if s, ok := t.Files[id]; ok {
		return s
	}
	return fmt.Sprintf("file#%d", id)
}

// ProcName resolves a pid to its script/command name.
func (t *Trace) ProcName(pid uint64) string {
	if s, ok := t.Procs[pid]; ok {
		return s
	}
	return fmt.Sprintf("pid%d", pid)
}

// Seconds converts a timestamp to seconds.
func (t *Trace) Seconds(ts uint64) float64 { return float64(ts) / float64(t.ClockHz) }

// Span returns the first and last event timestamps.
func (t *Trace) Span() (first, last uint64) {
	if len(t.Events) == 0 {
		return 0, 0
	}
	first = t.Events[0].Time
	last = t.Events[0].Time
	for i := range t.Events {
		ts := t.Events[i].Time
		if ts < first {
			first = ts
		}
		if ts > last {
			last = ts
		}
	}
	return first, last
}
