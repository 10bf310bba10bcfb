package fed

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/live"
	"k42trace/internal/relay"
	"k42trace/internal/stream"
)

// benchTrace builds one producer's worth of wire bytes: a 2-CPU trace
// with nEvents test events in stream format.
func benchTrace(b *testing.B, nEvents int) []byte {
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

// benchFed measures federated ingest: the same total producer load spread
// over 1 or N shards, each a collector (windowed analysis + spill) with a
// Shard beside it, with producers feeding through in-process handler conns
// so the numbers isolate collector work from socket throughput. Nothing of the data plane
// crosses shards, so aggregate capacity is shards × the per-shard ceiling.
func benchFed(b *testing.B, shards, producers int) {
	data := benchTrace(b, 20_000)
	b.SetBytes(int64(len(data) * producers))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spills := make([]bytes.Buffer, shards)
		cs := make([]*live.Collector, shards)
		ss := make([]*Shard, shards)
		for s := 0; s < shards; s++ {
			spills[s].Grow(len(data) * producers / shards)
			cs[s] = live.NewCollector(live.Options{
				Window: 100 * time.Millisecond, MaxWindows: 8,
				CPUSlots: 64, Spill: &spills[s],
			})
			var err error
			if ss[s], err = NewShard(cs[s], ShardOptions{}); err != nil {
				b.Fatal(err)
			}
		}
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
				if err := cs[p%shards].Handler()(relay.Conn{
					ID:     uint64(p + 1),
					Remote: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)},
					Stream: bs,
				}); err != nil {
					b.Error(err)
				}
			}(p)
		}
		wg.Wait()
		for _, sh := range ss {
			if err := sh.Drain(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The scaling set. On a multi-core host the 1-vs-3-shard pair shows the
// wall-clock speedup directly; on a single-core runner it shows the
// equal-core-budget overhead of federating (near zero), and the per-shard
// ceiling at the per-shard load (4 producers) gives the aggregate capacity
// of N independent shards.
func BenchmarkFedIngest1Shard12Producers(b *testing.B)  { benchFed(b, 1, 12) }
func BenchmarkFedIngest1Shard4Producers(b *testing.B)   { benchFed(b, 1, 4) }
func BenchmarkFedIngest3Shards12Producers(b *testing.B) { benchFed(b, 3, 12) }
