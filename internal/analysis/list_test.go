package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"k42trace/internal/event"
	"k42trace/internal/ksim"
)

// listLine is the line List used to print with fmt; List now builds it by
// hand and must not differ by a byte.
func listLine(tr *Trace, e *event.Event) string {
	name, text := event.Describe(tr.Reg, e)
	return fmt.Sprintf("%.7f %-28s %s\n", tr.Seconds(e.Time), name, text)
}

func TestListLineIsTheFmtLine(t *testing.T) {
	reg := event.NewRegistry()
	reg.MustRegister(event.MajorTest, 1, "TRC_TEST_ÜBER_LÄNGE_NAME", "64 str", "v %0[%lld] s %1[%s]")
	reg.MustRegister(event.MajorTest, 2, "TRC_TEST_A_NAME_LONGER_THAN_THE_COLUMN", "64", "%0[%08x]")
	payload := append([]uint64{1 << 63}, packTestStr("naïve")...)
	var evs []event.Event
	// Stamps whose eighth decimal is a 5: the float path rounds some of
	// them down where integer arithmetic would round half up.
	for _, ts := range []uint64{0, 50, 150, 250, 1050, 21474735050, 21474735150, 1<<53 + 50, ^uint64(0)} {
		evs = append(evs,
			mk(0, ts, event.MajorTest, 1, payload...),
			mk(1, ts, event.MajorTest, 2, 0xab),
			mk(0, ts, event.MajorTest, 3, 0xbeef, 2), // unregistered
			mk(1, ts, event.MajorTest, 1, 7),         // undecodable: no string
		)
	}
	for _, hz := range []uint64{1e9, 3, 1193182} {
		tr := Build(evs, hz, reg)
		var want bytes.Buffer
		for i := range evs {
			want.WriteString(listLine(tr, &evs[i]))
		}
		var got bytes.Buffer
		n, err := tr.List(&got, ListOptions{})
		if err != nil || n != len(evs) {
			t.Fatalf("hz %d: %d lines, err %v", hz, n, err)
		}
		if got.String() != want.String() {
			t.Errorf("hz %d: listing differs from the fmt rendering\n got:\n%s\nwant:\n%s", hz, &got, &want)
		}
	}
}

// countingWriter fails its failAt-th Write (never, if 0).
type countingWriter struct {
	io.Writer
	writes, failAt int
}

var errDiskFull = errors.New("disk full")

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	if c.writes == c.failAt {
		return 0, errDiskFull
	}
	return c.Writer.Write(p)
}

// switches is n scheduling events on one CPU, pid i switching to pid i+1.
func switches(n int) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = mk(0, uint64(100*i), event.MajorSched, ksim.EvSchedSwitch, uint64(i), uint64(i+1), 0)
	}
	return evs
}

func TestListStopsAtLimitAndAtWriteError(t *testing.T) {
	evs := switches(100)
	// Replaying this event costs 2^18 CPUs' pids, two megabytes: a List that
	// walks on past its stop shows in the bytes it allocated.
	evs = append(evs, mk(1<<18, 10000, event.MajorSched, ksim.EvSchedSwitch, 0, 1, 0))
	allocated := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.TotalAlloc
	}
	tr := Build(evs[:100], 1e9, event.Default)
	var full bytes.Buffer
	if _, err := tr.List(&full, ListOptions{}); err != nil {
		t.Fatal(err)
	}
	tr.Events = evs

	var b bytes.Buffer
	before := allocated()
	n, err := tr.List(&b, ListOptions{Limit: 8})
	if err != nil || n != 8 {
		t.Fatalf("limit 8: %d lines, err %v", n, err)
	}
	if !bytes.HasPrefix(full.Bytes(), b.Bytes()) || bytes.Count(b.Bytes(), []byte("\n")) != 8 {
		t.Errorf("limit 8 is not the first 8 lines of the full listing:\n%s", &b)
	}

	w := &countingWriter{Writer: io.Discard, failAt: 3}
	n, err = tr.List(w, ListOptions{})
	if !errors.Is(err, errDiskFull) || n != 2 || w.writes != 3 {
		t.Errorf("failing third write: %d lines, %d writes, err %v", n, w.writes, err)
	}
	if grew := allocated() - before; grew > 1<<20 {
		t.Errorf("List allocated %d bytes: it replayed the trace past its stop", grew)
	}
}

// TestListAllocationsDoNotGrowWithTheTrace: a line is built in one reused
// buffer and rendered by the compiled display string, so ten times the
// events cost the same handful of allocations.
func TestListAllocationsDoNotGrowWithTheTrace(t *testing.T) {
	allocs := func(n int) float64 {
		tr := Build(switches(n), 1e9, event.Default)
		return testing.AllocsPerRun(10, func() {
			if lines, err := tr.List(io.Discard, ListOptions{}); err != nil || lines != n {
				t.Fatalf("%d lines, err %v", lines, err)
			}
		})
	}
	small, large := allocs(500), allocs(5000)
	if large > small+4 {
		t.Errorf("List allocates %v times over 500 events and %v over 5000", small, large)
	}
	t.Logf("List: %v allocations over 500 events, %v over 5000", small, large)
}

// TestListReplaysOnlyPids: a listing reads one piece of the walker's state,
// the pid scheduled on each CPU, and replays only that. A syscall entry
// whose exit is not in the stream (a filter removed it, a flight recorder
// lapped it) would leave a frame on the walker's mode stack for good; the
// lister keeps no stack, so ten thousand of them cost what ten do.
func TestListReplaysOnlyPids(t *testing.T) {
	allocs := func(n int) float64 {
		evs := make([]event.Event, n)
		for i := range evs {
			evs[i] = mk(0, uint64(i), event.MajorSyscall, ksim.EvSyscallEnter, 7, uint64(i%300))
		}
		return testing.AllocsPerRun(10, func() {
			if lines, err := List(io.Discard, evs, 1e9, event.Default, ListOptions{HasPid: true}); err != nil || lines != n {
				t.Fatalf("%d lines, err %v", lines, err)
			}
		})
	}
	if few, many := allocs(10), allocs(10000); many > few {
		t.Errorf("List allocates %v times over 10 unmatched syscall entries and %v over 10 000", few, many)
	}
}
