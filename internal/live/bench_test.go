package live

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"k42trace/internal/analysis"
	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/relay"
	"k42trace/internal/stream"
)

// benchTrace builds one producer's worth of wire bytes: a 2-CPU trace
// with nEvents test events, serialized in stream format.
func benchTrace(b testing.TB, nEvents int) []byte {
	b.Helper()
	tr := core.MustNew(core.Config{
		CPUs: 2, BufWords: 2048, NumBufs: 8,
		Mode: core.Stream, Clock: clock.NewManual(1),
	})
	tr.EnableAll()
	var buf bytes.Buffer
	wait := stream.CaptureAsync(tr, &buf)
	for i := 0; i < nEvents; i++ {
		tr.CPU(i%2).Log1(event.MajorTest, 1, uint64(i))
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// benchIngest measures the full live ingest path — block parse, decode,
// windowed analysis, spill — for a given number of concurrent producers,
// bypassing sockets so the numbers isolate collector work.
func benchIngest(b *testing.B, producers int) {
	data := benchTrace(b, 20_000)
	b.SetBytes(int64(len(data) * producers))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var spill bytes.Buffer
		spill.Grow(len(data) * producers)
		c := NewCollector(Options{
			Window:     100 * time.Millisecond,
			MaxWindows: 8,
			CPUSlots:   producers * 2,
			Spill:      &spill,
		})
		h := c.Handler()
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				bs, err := stream.NewBlockStream(bytes.NewReader(data))
				if err != nil {
					b.Error(err)
					return
				}
				if err := h(relay.Conn{
					ID:     uint64(p + 1),
					Remote: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)},
					Stream: bs,
				}); err != nil {
					b.Error(err)
				}
			}(p)
		}
		wg.Wait()
		if err := c.Drain(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLiveIngest1Producer(b *testing.B)   { benchIngest(b, 1) }
func BenchmarkLiveIngest4Producers(b *testing.B)  { benchIngest(b, 4) }
func BenchmarkLiveIngest16Producers(b *testing.B) { benchIngest(b, 16) }

// BenchmarkWindowedFeed measures the analysis engine alone: one decoded
// block fed repeatedly through the sliding-window accumulators.
func BenchmarkWindowedFeed(b *testing.B) {
	data := benchTrace(b, 20_000)
	rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	var blocks [][]event.Event
	for k := 0; k < rd.NumBlocks(); k++ {
		evs, _, err := rd.Events(k)
		if err != nil {
			b.Fatal(err)
		}
		blocks = append(blocks, evs)
	}
	var events int
	for _, evs := range blocks {
		events += len(evs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := analysis.NewWindowed(analysis.WindowConfig{
			WidthTicks: 1e6, MaxWindows: 8, Hz: 1,
		})
		for _, evs := range blocks {
			w.Feed(evs)
		}
	}
	b.ReportMetric(float64(events), "events/op")
}
