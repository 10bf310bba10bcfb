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
// over 1 or N shards, each shard a full Shard (windowed analysis + spill +
// aggregator uplink), with producers feeding through in-process handler
// conns so the numbers isolate collector work from socket throughput. The
// aggregator is real and its uplinks are dialed over loopback.
func benchFed(b *testing.B, shards, producers int) {
	data := benchTrace(b, 20_000)
	b.SetBytes(int64(len(data) * producers))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := NewAggregator(AggOptions{CPUSlots: shards * 64})
		asrv, err := relay.ListenConns("127.0.0.1:0", agg.Handler())
		if err != nil {
			b.Fatal(err)
		}
		spills := make([]bytes.Buffer, shards)
		ss := make([]*Shard, shards)
		for s := 0; s < shards; s++ {
			spills[s].Grow(len(data) * producers / shards)
			ss[s], err = NewShard(ShardOptions{
				AggAddr: asrv.Addr(),
				Live: live.Options{
					Window: 100 * time.Millisecond, MaxWindows: 8,
					CPUSlots: 64, Spill: &spills[s],
				},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		// Cross-shard coupling: the fraction of ingested blocks that travel
		// to the aggregator. This is what bounds federated scaling — only
		// mask-marker blocks travel, so it is ~0 and aggregate capacity is
		// shards × the per-shard ceiling.
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
				if err := ss[p%shards].Handler()(relay.Conn{
					ID:     uint64(p + 1),
					Remote: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)},
					Stream: bs,
				}); err != nil {
					b.Error(err)
				}
			}(p)
		}
		wg.Wait()
		var ingested, forwarded uint64
		for _, sh := range ss {
			// Drain first: it flushes the ingest workers and the uplink
			// queue, so the counters below are final.
			if err := sh.Drain(); err != nil {
				b.Fatal(err)
			}
			for _, p := range sh.Collector().Snapshot().Producers {
				ingested += p.Blocks
			}
			forwarded += sh.up.Stats().Blocks
		}
		if ingested > 0 {
			b.ReportMetric(float64(forwarded)/float64(ingested), "uplink_frac")
		}
		asrv.CloseNow()
		if err := agg.Drain(); err != nil {
			b.Fatal(err)
		}
	}
}

// The scaling set. On a multi-core host the 1-vs-3-shard pair shows the
// wall-clock speedup directly; on a single-core runner it shows the
// equal-core-budget overhead of federating (near zero), and the per-shard
// ceiling at the per-shard load (4 producers) together with uplink_frac
// gives the aggregate capacity of N independent shards.
func BenchmarkFedIngest1Shard12Producers(b *testing.B)  { benchFed(b, 1, 12) }
func BenchmarkFedIngest1Shard4Producers(b *testing.B)   { benchFed(b, 1, 4) }
func BenchmarkFedIngest3Shards12Producers(b *testing.B) { benchFed(b, 3, 12) }
