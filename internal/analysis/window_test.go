package analysis

import (
	"bytes"
	"reflect"
	"testing"

	"k42trace/internal/event"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// windowFixture builds an SDET trace file and returns its per-block event
// chunks (in file order, which is per-CPU seal order) plus the offline
// whole-trace baseline.
func windowFixture(t *testing.T) (blocks [][]event.Event, offline *Trace) {
	t.Helper()
	var buf bytes.Buffer
	p := sdet.Params{ScriptsPerCPU: 4, CommandsPerScript: 5, Seed: 21}
	if _, err := sdet.Run(sdet.Config{CPUs: 4, Trace: sdet.TraceOn, Params: p,
		Sample: 40_000, HWCSample: 40_000}, &buf); err != nil {
		t.Fatal(err)
	}
	rd, err := stream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < rd.NumBlocks(); k++ {
		evs, _, err := rd.Events(k)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, evs)
	}
	all, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return blocks, Build(all, rd.Meta().ClockHz, event.Default)
}

// TestWindowedMatchesOffline feeds a trace block by block through the live
// engine sized to hold everything in one window, and requires every report
// — cumulative overview, per-window locks/profile/mem, and the watched
// TimeBreaks — to equal the offline whole-file analyses exactly.
func TestWindowedMatchesOffline(t *testing.T) {
	blocks, offline := windowFixture(t)
	first, last := offline.Span()
	_ = first

	over := offline.Overview()
	var pids []uint64
	for _, row := range over {
		pids = append(pids, row.Pid)
	}

	w := NewWindowed(WindowConfig{
		WidthTicks: last + 1,
		MaxWindows: 4,
		WatchPids:  pids,
		Hz:         offline.ClockHz,
	})
	for _, evs := range blocks {
		w.Feed(evs)
	}

	if got, want := overviewText(w.Overview()), overviewText(over); got != want {
		t.Errorf("cumulative overview differs from offline:\n got:\n%s\nwant:\n%s", got, want)
	}
	wins := w.Windows()
	if len(wins) != 1 {
		t.Fatalf("want 1 window covering the whole trace, got %d", len(wins))
	}
	ws := wins[0]
	if got, want := overviewText(ws.Overview), overviewText(over); got != want {
		t.Errorf("single-window overview differs from offline")
	}
	if want := offline.LockStat().Rows; !reflect.DeepEqual(ws.Locks, want) {
		t.Errorf("window lock rows differ from offline: got %d rows want %d", len(ws.Locks), len(want))
	}
	if want := offline.Profile(^uint64(0)); !reflect.DeepEqual(ws.Profile, want.Rows) ||
		ws.ProfileSamples != want.Total {
		t.Errorf("window profile differs from offline")
	}
	offMem := offline.MemProfile()
	if !reflect.DeepEqual(ws.Mem, offMem.Rows) || ws.MemTotals != offMem.Totals ||
		ws.MemSamples != offMem.Samples {
		t.Errorf("window mem report differs from offline")
	}
	if len(ws.Breaks) != len(pids) {
		t.Fatalf("want %d watched breakdowns, got %d", len(pids), len(ws.Breaks))
	}
	for _, tb := range ws.Breaks {
		if got, want := tb.String(), offline.TimeBreak(tb.Pid).String(); got != want {
			t.Errorf("pid %d breakdown differs from offline:\n got:\n%s\nwant:\n%s",
				tb.Pid, got, want)
		}
	}
	st := w.Stats()
	if st.LateEvents != 0 || st.EvictedWindows != 0 {
		t.Errorf("nothing should be late or evicted in a single window: %+v", st)
	}
	if st.Blocks != uint64(len(blocks)) {
		t.Errorf("fed %d blocks, engine counted %d", len(blocks), st.Blocks)
	}
}

// TestWindowedEvictionBoundsMemory slices the same trace into many narrow
// windows with a small live bound: the window count must never exceed the
// bound, old windows must actually be evicted, and the cumulative overview
// must still match offline exactly — eviction loses detail, never totals.
func TestWindowedEvictionBoundsMemory(t *testing.T) {
	blocks, offline := windowFixture(t)
	_, last := offline.Span()
	const maxWin = 4
	w := NewWindowed(WindowConfig{
		WidthTicks: last/64 + 1,
		MaxWindows: maxWin,
		Hz:         offline.ClockHz,
	})
	var fed uint64
	for _, evs := range blocks {
		w.Feed(evs)
		fed += uint64(len(evs))
		if n := w.Stats().LiveWindows; n > maxWin {
			t.Fatalf("live windows %d exceed bound %d", n, maxWin)
		}
	}
	st := w.Stats()
	if st.EvictedWindows == 0 {
		t.Fatalf("trace spans 64+ windows but nothing was evicted: %+v", st)
	}
	if st.Events != fed {
		t.Errorf("fed %d events, engine counted %d", fed, st.Events)
	}
	if got, want := overviewText(w.Overview()), overviewText(offline.Overview()); got != want {
		t.Errorf("cumulative overview diverged under eviction:\n got:\n%s\nwant:\n%s", got, want)
	}
	// Detail inside live windows is still exact: total events bucketed
	// into windows plus the late ones equals everything fed.
	var inWindows uint64
	for _, ws := range w.Windows() {
		inWindows += ws.Events
	}
	if inWindows > fed || inWindows+st.LateEvents > fed {
		t.Errorf("window event counts inconsistent: inWindows=%d late=%d fed=%d",
			inWindows, st.LateEvents, fed)
	}
}

// TestWindowedFeedOrderIndependence feeds the same blocks in file order
// and grouped per CPU: the cumulative overview must be identical, because
// the walker is strictly per-CPU and the overview sums are commutative —
// the property that makes a multi-producer collector's interleaving safe.
func TestWindowedFeedOrderIndependence(t *testing.T) {
	blocks, offline := windowFixture(t)
	_, last := offline.Span()
	cfg := WindowConfig{WidthTicks: last + 1, MaxWindows: 4, Hz: offline.ClockHz}

	fileOrder := NewWindowed(cfg)
	for _, evs := range blocks {
		fileOrder.Feed(evs)
	}
	perCPU := NewWindowed(cfg)
	for cpu := 0; cpu <= 16; cpu++ {
		for _, evs := range blocks {
			if len(evs) > 0 && evs[0].CPU == cpu {
				perCPU.Feed(evs)
			}
		}
	}
	if got, want := overviewText(perCPU.Overview()), overviewText(fileOrder.Overview()); got != want {
		t.Errorf("overview depends on cross-CPU feed interleaving:\n got:\n%s\nwant:\n%s", got, want)
	}
	if fileOrder.Stats().Events != perCPU.Stats().Events {
		t.Errorf("event counts differ between feed orders")
	}
}
