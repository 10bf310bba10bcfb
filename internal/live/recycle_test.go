package live

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"k42trace/internal/analysis"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/faultinject"
	"k42trace/internal/ksim"
	"k42trace/internal/relay"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// serveBytes feeds wire bytes to the collector as one connection, on the
// calling goroutine, and returns when its reader has seen the last block.
func serveBytes(t testing.TB, c *Collector, id uint64, wire []byte) {
	t.Helper()
	bs, err := stream.NewBlockStream(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Handler()(relay.Conn{ID: id, Remote: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)}, Stream: bs}); err != nil {
		t.Fatal(err)
	}
}

// mixedSizeWire is a two-CPU SDET trace laid out so that one connection
// carries blocks of different sizes back to back: all of one CPU's blocks
// — full ones, then the short partial its flush left — and then the
// other's, full ones again. Per-CPU order is untouched.
func mixedSizeWire(t *testing.T) []byte {
	t.Helper()
	k, tr, err := ksim.NewTracedKernel(
		ksim.Config{CPUs: 2, Tuned: true, Seed: 7, SamplePeriod: 40_000, HWCSamplePeriod: 40_000},
		core.Config{BufWords: 128, NumBufs: 8, Mode: core.Stream})
	if err != nil {
		t.Fatal(err)
	}
	tr.EnableAll()
	var raw bytes.Buffer
	wait := stream.CaptureAsync(tr, &raw)
	if _, err := k.Run(sdet.Workload(2, sdet.Params{ScriptsPerCPU: 2, CommandsPerScript: 3, Seed: 7})); err != nil {
		t.Fatal(err)
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	rd, err := stream.NewReader(bytes.NewReader(raw.Bytes()), int64(raw.Len()))
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	wr, err := stream.NewWriter(&wire, rd.Meta())
	if err != nil {
		t.Fatal(err)
	}
	var perCPU [2][]int // block numbers, in file order
	for k := 0; k < rd.NumBlocks(); k++ {
		h, _, err := rd.Block(k)
		if err != nil {
			t.Fatal(err)
		}
		perCPU[h.CPU] = append(perCPU[h.CPU], k)
	}
	tail := func(cpu int) int {
		h, _, _ := rd.Block(perCPU[cpu][len(perCPU[cpu])-1])
		return h.NWords
	}
	order := append(perCPU[0], perCPU[1]...)
	if tail(1) < tail(0) {
		order = append(perCPU[1], perCPU[0]...)
	}
	var sizes []int
	for _, k := range order {
		h, words, err := rd.Block(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := wr.WriteBlock(h, words); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, h.NWords)
	}
	short := slices.Index(sizes, slices.Min(sizes))
	if len(sizes) < 12 || short == 0 || short == len(sizes)-1 ||
		sizes[short] > 64 || sizes[short-1] != 128 || sizes[short+1] != 128 {
		t.Fatalf("want a short partial between full blocks, got sizes %v", sizes)
	}
	return wire.Bytes()
}

// TestRecyclingIsInvisible: the collector reads every block of a
// connection into one word buffer and decodes it into one event scratch.
// Nothing downstream may see that — the spill is the good input blocks
// byte for byte, and the live overview is the offline overview of the
// spill — for blocks of different sizes sharing the buffer, and across a
// block whose header is refused after it was read into the buffer.
func TestRecyclingIsInvisible(t *testing.T) {
	clean := mixedSizeWire(t)
	im, err := faultinject.OpenImage(clean, 3)
	if err != nil {
		t.Fatal(err)
	}
	const damaged = 4
	im.CorruptBlockMagic(damaged)
	wire := im.Bytes()

	// What must come out: every input block but the damaged one.
	g := im.Meta().Geometry()
	off := g.FileHeaderBytes + damaged*g.BlockBytes
	want := append(append([]byte(nil), clean[:off]...), clean[off+g.BlockBytes:]...)
	rd, err := stream.NewReader(bytes.NewReader(want), int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}

	var spill bytes.Buffer
	c := NewCollector(Options{
		Window:   250 * time.Millisecond,
		CPUSlots: im.Meta().CPUs,
		Spill:    &spill,
	})
	serveBytes(t, c, 1, wire)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(spill.Bytes(), want) {
		t.Fatalf("spill (%d bytes) is not the good input blocks (%d bytes)", spill.Len(), len(want))
	}
	evs, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	offline := analysis.Build(evs, rd.Meta().ClockHz, event.Default).Overview()
	if live := c.Snapshot().Overview; len(live) == 0 || !reflect.DeepEqual(live, offline) {
		t.Fatalf("live overview != offline overview of spill\nlive:\n%s\noffline:\n%s",
			overviewText(live), overviewText(offline))
	}
	s := c.Snapshot()
	if p := s.Producers[0]; p.Blocks != uint64(rd.NumBlocks()) || p.Garbled != 1 || p.Events != uint64(len(evs)) {
		t.Errorf("producer counted %d blocks, %d garbled, %d events; want %d, 1, %d",
			p.Blocks, p.Garbled, p.Events, rd.NumBlocks(), len(evs))
	}
}

// TestCollectorKeepsNoEvents: what a connection costs the collector in
// memory does not grow with what it carries. Four times the blocks are
// served from the same word buffer and the same event scratch; a collector
// that kept each block cost its words and 48 bytes an event.
func TestCollectorKeepsNoEvents(t *testing.T) {
	serve := func(events int) (allocated uint64, blocks int) {
		wire := benchTrace(t, events)
		c := NewCollector(Options{Window: time.Hour, Spill: io.Discard})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serveBytes(t, c, 1, wire)
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		s := c.Snapshot()
		if len(s.Producers) != 1 || s.Producers[0].Events < uint64(events) {
			t.Fatalf("served %d events, snapshot %+v", events, s.Producers)
		}
		return after.TotalAlloc - before.TotalAlloc, int(s.Producers[0].Blocks)
	}
	serve(20_000) // the runtime's own first-use allocations
	small, nSmall := serve(20_000)
	large, nLarge := serve(80_000)
	if nLarge < 4*nSmall-2 {
		t.Fatalf("80k events made %d blocks, 20k made %d", nLarge, nSmall)
	}
	if float64(large) >= 1.25*float64(small) {
		t.Errorf("serving %d blocks allocated %d bytes, %d blocks %d bytes: grows with the stream",
			nLarge, large, nSmall, small)
	}
}

// TestCollectorBuffersBounded: a connection makes one word buffer, however
// long its apply is wedged. The apply is wedged on the first block for
// longer than an in-memory stream takes to read; the connection has taken
// that one block off the stream and no other. A reader that ran ahead of
// the apply took a block, and a buffer to hold it, for every block it got
// ahead: with a four-deep queue, six buffers, and with a 64-deep one, one a
// block of this stream.
func TestCollectorBuffersBounded(t *testing.T) {
	wire := benchTrace(t, 40_000)
	rd, err := stream.NewReader(bytes.NewReader(wire), int64(len(wire)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumBlocks() < 20 {
		t.Fatalf("the stream has %d blocks, want at least 20", rd.NumBlocks())
	}
	bs, err := stream.NewBlockStream(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	spill := &wedgedSpill{w: io.Discard, release: make(chan struct{}), wedged: make(chan struct{})}
	c := NewCollector(Options{Spill: spill})
	served := make(chan error, 1)
	go func() {
		served <- c.Handler()(relay.Conn{ID: 1, Remote: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)}, Stream: bs})
	}()
	<-spill.wedged
	time.Sleep(100 * time.Millisecond)
	// The apply holds c.mu inside the wedge: nobody writes the map.
	taken := c.producers[1].blocks.Load()
	close(spill.release)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if taken != 1 {
		t.Errorf("the connection took %d blocks off the stream while its first was wedged, want 1", taken)
	}
	s := c.Snapshot()
	if got := s.Producers[0].Blocks; got != uint64(rd.NumBlocks()) || len(s.Disconnects) != 0 {
		t.Fatalf("collected %d of %d blocks, disconnects %v", got, rd.NumBlocks(), s.Disconnects)
	}
}
