package live

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/faultinject"
	"k42trace/internal/relay"
	"k42trace/internal/stream"
)

// soakBlock is one wire block as a comparable value.
type soakBlock struct {
	h     stream.BlockHeader
	words []uint64
}

// parseWire reads every parseable block out of raw wire bytes exactly the
// way the collector does: damaged blocks are skipped, a torn tail ends
// the stream. This is the offline stream.Capture view of the same bytes.
func parseWire(t *testing.T, raw []byte) []soakBlock {
	t.Helper()
	bs, err := stream.NewBlockStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out []soakBlock
	for {
		h, words, err := bs.Next(nil)
		if err == io.EOF {
			return out
		}
		var dmg *stream.BlockDamageError
		if errors.As(err, &dmg) {
			continue
		}
		if err != nil {
			// Torn tail: everything before it already parsed.
			return out
		}
		out = append(out, soakBlock{h: h, words: append([]uint64(nil), words...)})
	}
}

// TestSoakFaultyProducers runs several concurrent producers through
// fault injectors (drop, duplicate, reorder, bit flips) and requires the
// live-ingested spill to be block-for-block identical, per producer and
// in order, to an offline parse of the exact bytes each producer put on
// the wire. The injector output is teed, so "what the collector was
// sent" is known byte-exactly even though faults are randomized.
func TestSoakFaultyProducers(t *testing.T) {
	const producers = 4
	var spill bytes.Buffer
	c := NewCollector(Options{
		Window:     time.Second,
		MaxWindows: 4,
		CPUSlots:   producers * 2,
		Spill:      &spill,
	})
	srv, err := relay.ListenConns("127.0.0.1:0", c.Handler())
	if err != nil {
		t.Fatal(err)
	}

	tees := make([]bytes.Buffer, producers)
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := core.MustNew(core.Config{
				CPUs: 2, BufWords: 64, NumBufs: 8,
				Mode: core.Stream, Clock: clock.NewManual(1),
			})
			tr.EnableAll()
			done := make(chan struct{})
			go func() {
				defer close(done)
				// Tee the injector OUTPUT: the tee sees post-fault bytes,
				// exactly what travels to the collector.
				relay.SendThrough(tr, srv.Addr(), func(w io.Writer) io.Writer {
					return faultinject.NewInjector(io.MultiWriter(w, &tees[i]), faultinject.StreamFaults{
						Seed:          int64(1000 + i),
						DropProb:      0.10,
						DupProb:       0.10,
						ReorderWindow: 3,
						FlipProb:      0.15,
					})
				})
			}()
			for k := 0; k < 600; k++ {
				// Payload tags every event with its producer, so blocks are
				// globally unique and producer attribution is content-checkable.
				tr.CPU(k%2).Log1(event.MajorTest, 1, uint64(i)<<32|uint64(k))
			}
			tr.Stop()
			<-done
		}(i)
	}
	wg.Wait()
	waitFor(t, "all producers to finish", func() bool {
		s := c.Snapshot()
		if len(s.Producers) != producers {
			return false
		}
		for _, p := range s.Producers {
			if p.Connected {
				return false
			}
		}
		return true
	})
	srv.Close()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	// Group the spill's blocks by the CPU slice each producer was mapped
	// to, stripping the remap so they compare against the wire bytes.
	snap := c.Snapshot()
	rd, err := stream.NewReader(bytes.NewReader(spill.Bytes()), int64(spill.Len()))
	if err != nil {
		t.Fatal(err)
	}
	byBase := map[int][]soakBlock{}
	rs, err := stream.NewBlockStream(bytes.NewReader(spill.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for {
		h, words, err := rs.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		base := -1
		for _, p := range snap.Producers {
			if h.CPU >= p.CPUBase && h.CPU < p.CPUBase+p.CPUs {
				base = p.CPUBase
			}
		}
		if base < 0 {
			t.Fatalf("spill block on unmapped CPU %d", h.CPU)
		}
		h.CPU -= base
		byBase[base] = append(byBase[base], soakBlock{h: h, words: append([]uint64(nil), words...)})
	}

	// Every spilled block set must equal exactly one producer's wire
	// bytes; content tagging makes the match unambiguous.
	matched := map[int]bool{}
	total := 0
	for i := range tees {
		want := parseWire(t, tees[i].Bytes())
		total += len(want)
		found := false
		for base, got := range byBase {
			if matched[base] {
				continue
			}
			if reflect.DeepEqual(got, want) {
				matched[base] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("producer %d: no spill CPU slice matches its %d wire blocks", i, len(want))
		}
	}
	if len(matched) != producers {
		t.Fatalf("matched %d of %d producers", len(matched), producers)
	}
	if rd.NumBlocks() != total {
		t.Fatalf("spill has %d blocks, wires carried %d", rd.NumBlocks(), total)
	}

	// The soak must exercise the faults it claims to: across 4 seeded
	// injectors at these probabilities, duplicates and reorders are
	// certain, and flipped headers show up as garbled counts.
	var reordered, garbled uint64
	for _, p := range snap.Producers {
		reordered += p.Reordered
		garbled += p.Garbled
	}
	if reordered == 0 {
		t.Error("soak injected no observable reordering")
	}
	if garbled == 0 {
		t.Error("soak injected no observable garbling")
	}
}
