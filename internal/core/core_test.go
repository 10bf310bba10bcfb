package core

import (
	"strings"
	"testing"

	"k42trace/internal/clock"
	"k42trace/internal/event"
)

// newFR returns a small flight-recorder tracer with a deterministic clock.
func newFR(t *testing.T, cpus, bufWords, numBufs int) (*Tracer, *clock.Manual) {
	t.Helper()
	mc := clock.NewManual(1)
	tr, err := New(Config{CPUs: cpus, BufWords: bufWords, NumBufs: numBufs, Clock: mc})
	if err != nil {
		t.Fatal(err)
	}
	return tr, mc
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{CPUs: 0},
		{CPUs: 1, BufWords: 100},  // not a power of two
		{CPUs: 1, BufWords: 8},    // too small
		{CPUs: 1, NumBufs: 3},     // not a power of two
		{CPUs: 1, NumBufs: 1},     // too few
		{CPUs: 1, Mode: Mode(99)}, // unknown mode
		{CPUs: -2, BufWords: 64},  // negative CPUs
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, c)
		}
	}
	tr, err := New(Config{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tr.cfg
	if cfg.BufWords != DefaultBufWords || cfg.NumBufs != DefaultNumBufs || cfg.Clock == nil {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if tr.NumCPUs() != 2 || tr.BufWords() != DefaultBufWords {
		t.Error("accessors wrong")
	}
}

func TestModeOnFullStrings(t *testing.T) {
	if FlightRecorder.String() != "flight-recorder" || Stream.String() != "stream" {
		t.Error("mode strings")
	}
	if Block.String() != "block" || Drop.String() != "drop" {
		t.Error("onfull strings")
	}
	if !strings.Contains(Mode(9).String(), "9") || !strings.Contains(OnFull(9).String(), "9") {
		t.Error("unknown enum strings")
	}
}

func TestMaskOperations(t *testing.T) {
	tr, _ := newFR(t, 1, 64, 2)
	if tr.Mask() != 0 {
		t.Error("new tracer must start disabled (always compiled in, inactive)")
	}
	if tr.Enabled(event.MajorMem) {
		t.Error("should be disabled")
	}
	tr.Enable(event.MajorMem, event.MajorLock)
	if !tr.Enabled(event.MajorMem) || !tr.Enabled(event.MajorLock) || tr.Enabled(event.MajorIO) {
		t.Error("Enable wrong")
	}
	tr.Disable(event.MajorMem)
	if tr.Enabled(event.MajorMem) || !tr.Enabled(event.MajorLock) {
		t.Error("Disable wrong")
	}
	tr.EnableAll()
	if tr.Mask() != ^uint64(0) {
		t.Error("EnableAll wrong")
	}
	tr.DisableAll()
	if tr.Mask() != 0 {
		t.Error("DisableAll wrong")
	}
	tr.SetMask(0x5)
	if tr.Mask() != 0x5 {
		t.Error("SetMask wrong")
	}
}

func TestDisabledLoggingIsRejected(t *testing.T) {
	tr, _ := newFR(t, 1, 64, 2)
	c := tr.CPU(0)
	if c.Log1(event.MajorMem, 1, 42) {
		t.Error("disabled log must return false")
	}
	if got := tr.Stats().Events; got != 0 {
		t.Errorf("no events should be logged, got %d", got)
	}
	evs, _ := tr.Dump(0)
	if len(evs) != 0 {
		t.Errorf("dump should be empty, got %d events", len(evs))
	}
}

func TestLogArityRoundTrip(t *testing.T) {
	tr, _ := newFR(t, 1, 256, 2)
	tr.EnableAll()
	c := tr.CPU(0)
	if !c.Log0(event.MajorTest, 10) {
		t.Fatal("Log0 failed")
	}
	c.Log1(event.MajorTest, 11, 100)
	c.Log2(event.MajorTest, 12, 200, 201)
	c.Log3(event.MajorTest, 13, 300, 301, 302)
	c.Log4(event.MajorTest, 14, 400, 401, 402, 403)
	c.LogWords(event.MajorTest, 15, []uint64{500, 501, 502, 503, 504})
	evs, info := tr.Dump(0)
	if info.Stats.Garbled() {
		t.Fatalf("garbled: %+v", info)
	}
	// First event is the buffer's clock anchor.
	if evs[0].Major() != event.MajorControl || evs[0].Minor() != event.CtrlClockAnchor {
		t.Fatalf("first event not anchor: %v", evs[0].Header)
	}
	want := []struct {
		minor uint16
		data  []uint64
	}{
		{10, nil},
		{11, []uint64{100}},
		{12, []uint64{200, 201}},
		{13, []uint64{300, 301, 302}},
		{14, []uint64{400, 401, 402, 403}},
		{15, []uint64{500, 501, 502, 503, 504}},
	}
	got := evs[1:]
	if len(got) != len(want) {
		t.Fatalf("got %d events want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Major() != event.MajorTest || got[i].Minor() != w.minor {
			t.Errorf("event %d: %v/%d", i, got[i].Major(), got[i].Minor())
		}
		if len(got[i].Data) != len(w.data) {
			t.Fatalf("event %d: %d data words, want %d", i, len(got[i].Data), len(w.data))
		}
		for j, d := range w.data {
			if got[i].Data[j] != d {
				t.Errorf("event %d word %d: %d want %d", i, j, got[i].Data[j], d)
			}
		}
	}
	st := tr.Stats()
	if st.Events != 6 {
		t.Errorf("Events = %d want 6", st.Events)
	}
	if st.Words != 1+2+3+4+5+6 {
		t.Errorf("Words = %d want 21", st.Words)
	}
}

func TestTimestampsMonotonePerCPU(t *testing.T) {
	tr, _ := newFR(t, 2, 64, 4)
	tr.EnableAll()
	for i := 0; i < 500; i++ {
		tr.CPU(i%2).Log1(event.MajorTest, 1, uint64(i))
	}
	for cpu := 0; cpu < 2; cpu++ {
		evs, _ := tr.Dump(cpu)
		var prev uint64
		for i, e := range evs {
			if e.Time < prev {
				t.Fatalf("cpu %d event %d: time %d < %d", cpu, i, e.Time, prev)
			}
			prev = e.Time
		}
	}
}

func TestFillerInsertionAndBoundaries(t *testing.T) {
	const bw = 64
	tr, _ := newFR(t, 1, bw, 4)
	tr.EnableAll()
	c := tr.CPU(0)
	// 5-word events into a 64-word buffer: after the 2-word anchor, twelve
	// 5-word events leave a 2-word remainder -> filler.
	for i := 0; i < 30; i++ {
		c.Log4(event.MajorTest, uint16(i), 1, 2, 3, 4)
	}
	evs, info := tr.Dump(0)
	if info.Stats.Garbled() {
		t.Fatalf("garbled: %+v", info.Stats)
	}
	if info.Stats.FillerEvents == 0 {
		t.Error("expected filler events at buffer tails")
	}
	st := tr.Stats()
	if st.FillerWords == 0 || st.FillerEvents == 0 {
		t.Error("filler stats not counted")
	}
	// Every decoded non-filler event must lie entirely within one buffer.
	// DecodeBuffer inherently guarantees this (it decodes per buffer), so
	// instead verify raw: walk each buffer independently and require clean
	// decode, which fails if any event crossed the boundary.
	if got := len(evs); got < 30 {
		t.Errorf("lost events: got %d non-filler (incl anchors), want >= 30", got)
	}
}

func TestExactFitNeedsNoFiller(t *testing.T) {
	const bw = 64
	tr, _ := newFR(t, 1, bw, 4)
	tr.EnableAll()
	c := tr.CPU(0)
	// Anchor takes 2 words; one 62-word event fills the buffer exactly.
	data := make([]uint64, 61)
	c.LogWords(event.MajorTest, 1, data) // 62 words total
	c.LogWords(event.MajorTest, 2, data) // next buffer: anchor + event, also exact
	st := tr.Stats()
	if st.ExactFit != 2 {
		t.Errorf("ExactFit = %d, want 2", st.ExactFit)
	}
	if st.FillerEvents != 0 {
		t.Errorf("FillerEvents = %d, want 0 (exact fit)", st.FillerEvents)
	}
	evs, info := tr.Dump(0)
	if info.Stats.Garbled() {
		t.Fatal("garbled")
	}
	n := 0
	for _, e := range evs {
		if e.Major() == event.MajorTest {
			n++
		}
	}
	if n != 2 {
		t.Errorf("got %d test events, want 2", n)
	}
}

func TestTooLargeEventRejected(t *testing.T) {
	tr, _ := newFR(t, 1, 64, 2)
	tr.EnableAll()
	c := tr.CPU(0)
	big := make([]uint64, 63) // 64 words total: equals BufWords, but anchor needs 2
	if c.LogWords(event.MajorTest, 1, big) {
		t.Error("event larger than BufWords-anchor must be rejected")
	}
	if tr.Stats().TooLarge != 1 {
		t.Errorf("TooLarge = %d", tr.Stats().TooLarge)
	}
	// Maximum acceptable size: BufWords - anchorWords.
	ok := c.LogWords(event.MajorTest, 2, make([]uint64, 64-anchorWords-1))
	if !ok {
		t.Error("max-size event should be accepted")
	}
}

func TestFlightRecorderWrapKeepsRecent(t *testing.T) {
	const bw, nb = 64, 2
	tr, _ := newFR(t, 1, bw, nb)
	tr.EnableAll()
	c := tr.CPU(0)
	const total = 1000
	for i := 0; i < total; i++ {
		c.Log1(event.MajorTest, 1, uint64(i))
	}
	evs, _ := tr.Dump(0)
	var payloads []uint64
	for _, e := range evs {
		if e.Major() == event.MajorTest {
			payloads = append(payloads, e.Data[0])
		}
	}
	if len(payloads) == 0 || len(payloads) > bw*nb {
		t.Fatalf("unreasonable dump size %d", len(payloads))
	}
	// Must be the most recent window, contiguous, ending at total-1.
	last := payloads[len(payloads)-1]
	if last != total-1 {
		t.Errorf("last payload %d, want %d", last, total-1)
	}
	for i := 1; i < len(payloads); i++ {
		if payloads[i] != payloads[i-1]+1 {
			t.Fatalf("payloads not contiguous at %d: %d after %d", i, payloads[i], payloads[i-1])
		}
	}
}

func TestTailEvents(t *testing.T) {
	tr, _ := newFR(t, 1, 64, 4)
	tr.EnableAll()
	c := tr.CPU(0)
	for i := 0; i < 50; i++ {
		c.Log1(event.MajorTest, 1, uint64(i))
	}
	evs, _ := tr.Dump(0)
	tail := evs[max(len(evs)-5, 0):]
	if len(tail) != 5 {
		t.Fatalf("got %d events", len(tail))
	}
	if tail[4].Data[0] != 49 {
		t.Errorf("last event payload %d", tail[4].Data[0])
	}
}

func TestDumpRestoresMask(t *testing.T) {
	tr, _ := newFR(t, 1, 64, 2)
	tr.Enable(event.MajorTest, event.MajorMem)
	want := tr.Mask()
	tr.CPU(0).Log0(event.MajorTest, 1)
	tr.Dump(0)
	if tr.Mask() != want {
		t.Errorf("mask not restored: %x want %x", tr.Mask(), want)
	}
}

func TestQuiesceReturnsOldMask(t *testing.T) {
	tr, _ := newFR(t, 1, 64, 2)
	tr.SetMask(0xabc)
	old := tr.Quiesce()
	if old != 0xabc {
		t.Errorf("old mask %x", old)
	}
	if tr.Mask() != 0 {
		t.Error("mask should be zero after quiesce")
	}
}

func TestTimestampWrap32(t *testing.T) {
	// Manual clock stepping 1<<30 per read: the 32-bit header stamp wraps
	// every 4 reads; anchors at buffer starts must let the decoder rebuild
	// full 64-bit times.
	mc := clock.NewManual(1 << 30)
	tr, err := New(Config{CPUs: 1, BufWords: 32, NumBufs: 8, Clock: mc})
	if err != nil {
		t.Fatal(err)
	}
	tr.EnableAll()
	c := tr.CPU(0)
	const n = 40
	for i := 0; i < n; i++ {
		c.Log1(event.MajorTest, 1, uint64(i))
	}
	evs, info := tr.Dump(0)
	if info.Stats.Garbled() {
		t.Fatal("garbled")
	}
	var prev uint64
	var span uint64
	for _, e := range evs {
		if e.Time < prev {
			t.Fatalf("time went backwards across wrap: %d < %d", e.Time, prev)
		}
		prev = e.Time
	}
	first := evs[0].Time
	span = prev - first
	if span < 1<<32 {
		t.Errorf("test did not cross a 32-bit wrap: span %d", span)
	}
}

func TestLoggingAfterStopReturnsFalse(t *testing.T) {
	tr := MustNew(Config{CPUs: 1, BufWords: 64, NumBufs: 2, Mode: Stream})
	tr.EnableAll()
	go func() {
		for s := range tr.Sealed() {
			tr.Release(s)
		}
	}()
	c := tr.CPU(0)
	if !c.Log0(event.MajorTest, 1) {
		t.Fatal("log before stop failed")
	}
	tr.Stop()
	tr.Stop() // idempotent
	if c.Log0(event.MajorTest, 1) {
		t.Error("log after stop should fail")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid config")
		}
	}()
	MustNew(Config{})
}
