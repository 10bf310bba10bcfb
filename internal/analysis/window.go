package analysis

import (
	"sort"

	"k42trace/internal/event"
)

// WindowConfig sizes the live sliding-window engine.
type WindowConfig struct {
	// WidthTicks is the window width in trace-clock ticks. Events with
	// timestamp t land in window t / WidthTicks.
	WidthTicks uint64
	// MaxWindows bounds how many windows are kept live; when a new window
	// opens beyond the bound, the oldest is evicted — its detailed stats
	// are gone for good, which is what keeps collector memory bounded over
	// an unbounded run.
	MaxWindows int
	// WatchPids lists processes to keep per-window TimeBreak accumulators
	// for. The breakdown walk is the most stateful analysis, so it is
	// opt-in per pid rather than run for every pid seen.
	WatchPids []uint64
	// Hz is the trace clock rate.
	Hz uint64
}

// Windowed is the live incremental analysis engine: a persistent
// StreamWalker feeds every decoded block through the same accumulators
// the offline tools use, bucketed into fixed-width time windows that are
// evicted oldest-first, plus one cumulative overview that is never
// evicted.
//
// Equivalence with offline analysis rests on three properties: the
// walker's state machine is strictly per-CPU, so feeding blocks in
// per-CPU seal order is identical to walking the merged file; the
// overview accumulator is a commutative sum keyed by pid, so interleaving
// across CPUs doesn't matter; and names resolve at snapshot time against
// a naming context grown by Absorb, which after a full stream holds
// exactly what offline Build reconstructs. Hence the cumulative Overview
// of a drained live session equals the offline Overview of the spilled
// trace file, row for row.
//
// Windowed is not goroutine-safe; the caller (internal/live's collector)
// serializes Feed and snapshot calls.
type Windowed struct {
	cfg    WindowConfig
	trace  *Trace
	walker *StreamWalker
	cum    *overviewAcc

	// windows is sorted ascending by index; all held indices are >= floor.
	windows []*liveWindow
	cur     *liveWindow // last window hit, a cheap cache for in-order feeds
	floor   uint64      // smallest index not yet evicted

	evicted    uint64
	lateEvents uint64
	lateSpans  uint64
	events     uint64
	blocks     uint64
	maxTick    uint64
}

// liveWindow is the per-window accumulator set.
type liveWindow struct {
	index    uint64
	overview *overviewAcc
	locks    *lockAcc
	profile  *Profile
	mem      *MemReport
	breaks   map[uint64]*timeBreakAcc
	events   uint64
	blocks   uint64
}

// NewWindowed builds the engine. Zero-value config fields get defaults:
// width 1e7 ticks, 32 windows.
func NewWindowed(cfg WindowConfig) *Windowed {
	if cfg.WidthTicks == 0 {
		cfg.WidthTicks = 1e7
	}
	if cfg.MaxWindows <= 0 {
		cfg.MaxWindows = 32
	}
	w := &Windowed{
		cfg:   cfg,
		trace: NewTrace(cfg.Hz, nil),
		cum:   newOverviewAcc(),
	}
	w.walker = NewStreamWalker(0, Hooks{
		Span: func(cpu int, st *CPUState, from, to uint64) {
			w.cum.span(st, from, to)
			ws := w.windowFor(from)
			if ws == nil {
				w.lateSpans++
				return
			}
			ws.overview.span(st, from, to)
			for _, a := range ws.breaks {
				a.span(cpu, st, from, to)
			}
		},
		Event: func(e *event.Event, st *CPUState) {
			w.cum.event(e, st)
			ws := w.windowFor(e.Time)
			if ws == nil {
				w.lateEvents++
				return
			}
			ws.events++
			ws.overview.event(e, st)
			ws.locks.event(e, st)
			ws.profile.observe(e)
			ws.mem.observe(e)
			for _, a := range ws.breaks {
				a.event(e, st)
			}
		},
	})
	return w
}

// ClockHz returns the trace clock rate.
func (w *Windowed) ClockHz() uint64 { return w.trace.ClockHz }

// WidthTicks returns the configured window width.
func (w *Windowed) WidthTicks() uint64 { return w.cfg.WidthTicks }

// Feed pushes one decoded block's events through the engine. Blocks must
// arrive in per-CPU seal (seq) order for exact offline equivalence; the
// interleaving across CPUs is free.
func (w *Windowed) Feed(evs []event.Event) {
	if len(evs) == 0 {
		return
	}
	// Definitions first, so names and thread ownership logged in this
	// block resolve for its own events — offline Build likewise scans all
	// definitions before any analysis runs.
	w.trace.Absorb(evs)
	w.walker.EnsureCPUs(MaxCPU(evs) + 1)
	w.blocks++
	w.events += uint64(len(evs))
	for i := range evs {
		if t := evs[i].Time; t > w.maxTick {
			w.maxTick = t
		}
	}
	if ws := w.windowFor(evs[0].Time); ws != nil {
		ws.blocks++
	}
	w.walker.Feed(evs)
}

// windowFor returns the live window holding tick ts, opening (and
// possibly evicting) as needed, or nil if that window was already
// evicted — the caller counts those as late.
func (w *Windowed) windowFor(ts uint64) *liveWindow {
	idx := ts / w.cfg.WidthTicks
	if w.cur != nil && w.cur.index == idx {
		return w.cur
	}
	if idx < w.floor {
		return nil
	}
	i := sort.Search(len(w.windows), func(i int) bool { return w.windows[i].index >= idx })
	if i < len(w.windows) && w.windows[i].index == idx {
		w.cur = w.windows[i]
		return w.cur
	}
	ws := w.newWindow(idx)
	w.windows = append(w.windows, nil)
	copy(w.windows[i+1:], w.windows[i:])
	w.windows[i] = ws
	for len(w.windows) > w.cfg.MaxWindows {
		w.evicted++
		w.floor = w.windows[0].index + 1
		w.cur = nil
		w.windows = append(w.windows[:0], w.windows[1:]...)
	}
	if ws.index < w.floor {
		// The new window was older than everything live and fell straight
		// off the back.
		return nil
	}
	w.cur = ws
	return ws
}

func (w *Windowed) newWindow(idx uint64) *liveWindow {
	ws := &liveWindow{
		index:    idx,
		overview: newOverviewAcc(),
		locks:    newLockAcc(),
		profile:  newProfile(^uint64(0)),
		mem:      newMemReport(w.trace),
		breaks:   map[uint64]*timeBreakAcc{},
	}
	for _, pid := range w.cfg.WatchPids {
		ws.breaks[pid] = w.trace.newTimeBreakAcc(pid)
	}
	return ws
}

// Overview returns the cumulative per-process summary over everything
// ever fed — never evicted, bounded by the number of distinct pids. After
// a drained session this equals the offline Overview of the same blocks.
func (w *Windowed) Overview() []ProcSummary {
	return w.cum.rows(w.trace)
}

// maxLiveMaskEpochs bounds how many mask-change markers a snapshot
// carries; the full list lives in the Trace (and the spill file).
const maxLiveMaskEpochs = 64

// MaskEpochs returns the newest mask-change markers absorbed so far (at
// most maxLiveMaskEpochs, oldest first), so a live dashboard can show
// when visibility epochs began without holding the whole history.
func (w *Windowed) MaskEpochs() []MaskEpoch {
	eps := w.trace.MaskEpochs
	if len(eps) > maxLiveMaskEpochs {
		eps = eps[len(eps)-maxLiveMaskEpochs:]
	}
	return append([]MaskEpoch(nil), eps...)
}

// WindowSnapshot is one window's detailed stats as plain resolved data:
// every name is materialized, nothing aliases live accumulator state, so
// a snapshot can be marshaled or rendered after the engine moves on.
type WindowSnapshot struct {
	Index     uint64 `json:"index"`
	StartTick uint64 `json:"start_tick"`
	EndTick   uint64 `json:"end_tick"`
	Events    uint64 `json:"events"`
	Blocks    uint64 `json:"blocks"`

	Overview []ProcSummary `json:"overview"`
	Locks    []LockRow     `json:"locks"`

	Profile        []ProfileRow `json:"profile"`
	ProfileSamples int          `json:"profile_samples"`

	Mem        []MemRow `json:"mem"`
	MemTotals  MemRow   `json:"mem_totals"`
	MemSamples int      `json:"mem_samples"`

	Breaks []*TimeBreak `json:"breaks,omitempty"`
}

// Windows snapshots every live window, oldest first.
func (w *Windowed) Windows() []WindowSnapshot {
	out := make([]WindowSnapshot, 0, len(w.windows))
	for _, ws := range w.windows {
		out = append(out, w.snapshotWindow(ws))
	}
	return out
}

func (w *Windowed) snapshotWindow(ws *liveWindow) WindowSnapshot {
	s := WindowSnapshot{
		Index:          ws.index,
		StartTick:      ws.index * w.cfg.WidthTicks,
		EndTick:        (ws.index + 1) * w.cfg.WidthTicks,
		Events:         ws.events,
		Blocks:         ws.blocks,
		Overview:       ws.overview.rows(w.trace),
		Locks:          ws.locks.report(w.trace).Rows,
		Profile:        ws.profile.snapshotRows(w.trace),
		ProfileSamples: ws.profile.Total,
		Mem:            ws.mem.snapshotRows(),
		MemTotals:      ws.mem.Totals,
		MemSamples:     ws.mem.Samples,
	}
	var pids []uint64
	for pid := range ws.breaks {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		s.Breaks = append(s.Breaks, ws.breaks[pid].snapshot())
	}
	return s
}

// LiveStats are the engine's own counters.
type LiveStats struct {
	Events         uint64 `json:"events"`
	Blocks         uint64 `json:"blocks"`
	LiveWindows    int    `json:"live_windows"`
	EvictedWindows uint64 `json:"evicted_windows"`
	// LateEvents/LateSpans landed in windows already evicted (a producer
	// lagging more than MaxWindows behind the newest); they are still in
	// the cumulative overview, just not in any window.
	LateEvents uint64 `json:"late_events"`
	LateSpans  uint64 `json:"late_spans"`
	// MaxTick is the newest event timestamp seen, the reference point for
	// per-producer lag.
	MaxTick uint64 `json:"max_tick"`
}

// Stats returns the engine counters.
func (w *Windowed) Stats() LiveStats {
	return LiveStats{
		Events:         w.events,
		Blocks:         w.blocks,
		LiveWindows:    len(w.windows),
		EvictedWindows: w.evicted,
		LateEvents:     w.lateEvents,
		LateSpans:      w.lateSpans,
		MaxTick:        w.maxTick,
	}
}
