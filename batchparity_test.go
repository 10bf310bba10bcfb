package ktrace

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/stream"
)

// fixedClock returns the same instant forever. clock.Manual cannot serve
// here: its step is coerced to at least 1, so plain logging (one clock
// read per event) and batched logging (one read per batch) would diverge
// by construction. With a constant clock, any byte difference between the
// two streams is a real layout difference.
type fixedClock struct{}

func (fixedClock) Now(cpu int) uint64 { return 5 }
func (fixedClock) Hz() uint64         { return 1e9 }

// captureRun drives one tracer through fn and returns the serialized
// trace stream.
func captureRun(t *testing.T, cfg Config, fn func(tr *Tracer)) []byte {
	t.Helper()
	cfg.Mode = Stream
	cfg.Clock = fixedClock{}
	tr := MustNew(cfg)
	tr.EnableAll()
	var buf bytes.Buffer
	get := CaptureAsync(tr, &buf)
	fn(tr)
	tr.Stop()
	if _, err := get(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fixedArity is what CPU and Batch share with perP: the five fixed-arity
// entry points.
type fixedArity interface {
	Log0(major Major, minor uint16) bool
	Log1(major Major, minor uint16, d0 uint64) bool
	Log2(major Major, minor uint16, d0, d1 uint64) bool
	Log3(major Major, minor uint16, d0, d1, d2 uint64) bool
	Log4(major Major, minor uint16, d0, d1, d2, d3 uint64) bool
}

// perP logs through the tracer's per-P fast path, which has no
// zero-payload entry point: its Log0 logs nothing.
type perP struct{ tr *Tracer }

func (p perP) Log0(major Major, minor uint16) bool { return false }
func (p perP) Log1(major Major, minor uint16, d0 uint64) bool {
	return p.tr.PLog1(major, minor, d0)
}
func (p perP) Log2(major Major, minor uint16, d0, d1 uint64) bool {
	return p.tr.PLog2(major, minor, d0, d1)
}
func (p perP) Log3(major Major, minor uint16, d0, d1, d2 uint64) bool {
	return p.tr.PLog3(major, minor, d0, d1, d2)
}
func (p perP) Log4(major Major, minor uint16, d0, d1, d2, d3 uint64) bool {
	return p.tr.PLog4(major, minor, d0, d1, d2, d3)
}

// TestBatchStreamParity proves batching is an optimization, not a format
// change: the same event sequence logged plainly, through an explicit
// Batch, and through the per-P PLog fast path produces byte-identical
// trace streams — so every analysis is trivially unchanged by batching.
//
// Each tiling makes "no filler" exact. Log1: BufWords 16 leaves 14 words
// per buffer after the clock anchor, one batch of 14 words is exactly 7
// two-word events, and 70 events fill 10 buffers with no tail. All five
// arities: a round is Log0..Log4 with log_hot's minors and payloads, 15
// words; BufWords 32 leaves 30, two rounds, and a batch holds one round.
// The per-P path has no Log0, so it runs the Log1..Log4 round instead: 14
// words, one round a 16-word buffer and a batch. The decoded payloads are checked against what was logged, so a word
// order wrong on all three receivers at once fails too.
func TestBatchStreamParity(t *testing.T) {
	cases := []struct {
		name                 string
		bufWords, batchWords int
		rounds, roundWords   int
		noPerP               bool // the round logs a Log0
		round                func(l fixedArity, v uint64) bool
		payloads             func(v uint64) [][]uint64 // of one round's events
	}{
		{
			name: "Log1", bufWords: 16, batchWords: 14, rounds: 70, roundWords: 2,
			round:    func(l fixedArity, v uint64) bool { return l.Log1(MajorTest, 9, v) },
			payloads: func(v uint64) [][]uint64 { return [][]uint64{{v}} },
		},
		{
			name: "Log0-4", bufWords: 32, batchWords: 15, rounds: 20, roundWords: 15, noPerP: true,
			round: func(l fixedArity, v uint64) bool {
				return l.Log0(MajorTest, 1) && l.Log1(MajorTest, 2, v) &&
					l.Log2(MajorTest, 3, v, v>>7) && l.Log3(MajorTest, 4, v, v>>7, v>>13) &&
					l.Log4(MajorTest, 5, v, v>>7, v>>13, v>>19)
			},
			payloads: func(v uint64) [][]uint64 {
				return [][]uint64{{}, {v}, {v, v >> 7}, {v, v >> 7, v >> 13}, {v, v >> 7, v >> 13, v >> 19}}
			},
		},
		{
			name: "Log1-4", bufWords: 16, batchWords: 14, rounds: 10, roundWords: 14,
			round: func(l fixedArity, v uint64) bool {
				return l.Log1(MajorTest, 2, v) && l.Log2(MajorTest, 3, v, v>>7) &&
					l.Log3(MajorTest, 4, v, v>>7, v>>13) && l.Log4(MajorTest, 5, v, v>>7, v>>13, v>>19)
			},
			payloads: func(v uint64) [][]uint64 {
				return [][]uint64{{v}, {v, v >> 7}, {v, v >> 7, v >> 13}, {v, v >> 7, v >> 13, v >> 19}}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{CPUs: 1, BufWords: tc.bufWords, NumBufs: 4}
			value := func(i int) uint64 { return uint64(i) ^ 0x9e3779b97f4a7c15 }
			// The three receivers differ only in who holds the batch.
			var b Batch
			run := func(cfg Config, l func(tr *Tracer, i int) fixedArity) []byte {
				return captureRun(t, cfg, func(tr *Tracer) {
					for i := 0; i < tc.rounds; i++ {
						if !tc.round(l(tr, i), value(i)) {
							t.Fatalf("round %d failed", i)
						}
					}
					b.Close() // the explicit batch's last; a no-op for the others
				})
			}

			plain := run(cfg, func(tr *Tracer, _ int) fixedArity { return tr.CPU(0) })

			batched := run(cfg, func(tr *Tracer, i int) fixedArity {
				if i%(tc.batchWords/tc.roundWords) == 0 && !tr.CPU(0).OpenBatch(&b, MajorTest, tc.batchWords) {
					t.Fatalf("OpenBatch at round %d failed", i)
				}
				return &b
			})

			if !bytes.Equal(plain, batched) {
				t.Errorf("explicit-batch stream differs from plain stream (%d vs %d bytes)",
					len(batched), len(plain))
			}
			if !tc.noPerP {
				// The per-P path parks batches per P; pin to one P so a
				// mid-batch migration cannot split the sequence across two
				// parked batches.
				prev := runtime.GOMAXPROCS(1)
				perPCfg := cfg
				perPCfg.BatchWords = tc.batchWords
				perPStream := run(perPCfg, func(tr *Tracer, _ int) fixedArity { return perP{tr} })
				runtime.GOMAXPROCS(prev)
				if !bytes.Equal(plain, perPStream) {
					t.Errorf("per-P fast-path stream differs from plain stream (%d vs %d bytes)",
						len(perPStream), len(plain))
				}
			}

			// And the decoded view agrees: 10 blocks, every payload as
			// logged, zero filler.
			r, err := stream.NewReader(bytes.NewReader(plain), int64(len(plain)))
			if err != nil {
				t.Fatal(err)
			}
			if r.NumBlocks() != 10 {
				t.Errorf("%d blocks, want 10", r.NumBlocks())
			}
			var got []event.Event
			for blk := 0; blk < r.NumBlocks(); blk++ {
				hdr, words, err := r.Block(blk)
				if err != nil {
					t.Fatal(err)
				}
				evs, st := core.DecodeBuffer(hdr.CPU, words)
				if st.Garbled() || st.FillerWords != 0 {
					t.Errorf("block %d: garbled=%v filler=%d (tiling should leave none)",
						blk, st.Garbled(), st.FillerWords)
				}
				for _, e := range evs {
					if e.Major() == event.MajorTest {
						got = append(got, e)
					}
				}
			}
			var want [][]uint64
			for i := 0; i < tc.rounds; i++ {
				want = append(want, tc.payloads(value(i))...)
			}
			if len(got) != len(want) {
				t.Fatalf("decoded %d events, want %d", len(got), len(want))
			}
			for k, e := range got {
				if !slices.Equal(e.Data, want[k]) {
					t.Fatalf("event %d (minor %d): payload %x, want %x", k, e.Minor(), e.Data, want[k])
				}
			}
		})
	}
}
