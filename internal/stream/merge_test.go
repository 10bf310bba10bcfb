package stream

import (
	"bytes"
	"cmp"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
)

// pulledChain is a RunSource the way a store's is: a goroutine of its own
// hands the chain's runs over one at a time, each lies in the one scratch
// until the next draw, and Close stops the goroutine and waits for it. What
// the merge was handed last is poisoned at every draw and at Close, so a
// merge that reads a run after asking for the next one merges poison.
type pulledChain struct {
	out     chan []event.Event // closed after the last run
	stop    chan struct{}
	err     error // what Next returns once out is closed; nil means io.EOF
	scratch []event.Event
	closed  int
}

var errChainBroke = errors.New("chain broke")

// newPulledChain serves runs; with failAfter >= 0 the draw after that many
// fails instead.
func newPulledChain(runs [][]event.Event, failAfter int) *pulledChain {
	c := &pulledChain{out: make(chan []event.Event), stop: make(chan struct{})}
	if failAfter >= 0 {
		runs, c.err = runs[:min(failAfter, len(runs))], errChainBroke
	}
	go func() {
		defer close(c.out)
		for _, r := range runs {
			select {
			case c.out <- r:
			case <-c.stop:
				return
			}
		}
	}()
	return c
}

func (c *pulledChain) poison() {
	for i := range c.scratch {
		c.scratch[i] = event.Event{Time: 1 << 62, CPU: 1 << 20, Data: []uint64{0xdead}}
	}
}

func (c *pulledChain) Next() ([]event.Event, error) {
	c.poison()
	r, ok := <-c.out
	if !ok {
		if c.err != nil {
			return nil, c.err
		}
		return nil, io.EOF
	}
	c.scratch = append(c.scratch[:0], r...)
	return c.scratch, nil
}

func (c *pulledChain) Close() {
	c.poison()
	c.closed++
	close(c.stop)
	for range c.out {
	}
}

// TestMergeByTimeIsTheStableSort is the merge's whole contract as a
// property: whatever the runs — ties across CPUs and across the runs of one
// CPU, empty runs, a single run, a CPU whose chain is out of order (the
// one thing that is concatenated and sorted), CPUs interleaved in arrival
// order, a run that changes CPU half way, a negative CPU — the result is
// slices.SortStableFunc by (Time, CPU) of their concatenation, in a slice
// of its own, and the runs are as they were. And it is the same when some
// of the CPUs are pulled instead, the ones whose chains step back among
// them — a run at a time through one scratch, empty draws among them, with
// a hint that is short, exact or long — and a chain that breaks half way
// fails the merge with that error, every source closed once and no
// goroutine left. Capped, the same merge keeps a page of that order: the
// part after a head, up to a count, with the chains it stopped drawing
// closed.
func TestMergeByTimeIsTheStableSort(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(17))
	serial := uint64(0) // tells tied events apart
	mkRun := func(cpu, n int, from uint64, step int) []event.Event {
		r := make([]event.Event, n)
		for i := range r {
			from += uint64(rng.Intn(step + 1))
			serial++
			r[i] = event.Event{Time: from, CPU: cpu, Data: []uint64{serial}}
		}
		return r
	}
	pulledRounds, brokenRounds, steppedBackRounds := 0, 0, 0
	cappedRounds, cappedStepBackRounds := 0, 0
	for round := 0; round < 400; round++ {
		cpus := 1 + rng.Intn(5)
		last := make([]uint64, cpus) // where each CPU's chain has got to
		var runs [][]event.Event
		for n := rng.Intn(12); n > 0; n-- {
			cpu := rng.Intn(cpus)
			r := mkRun(cpu-1, rng.Intn(6), last[cpu], rng.Intn(3)) // step 0: nothing but ties
			switch rng.Intn(8) {
			case 0: // overlaps the chain so far: the fallback
				for i := range r {
					r[i].Time = uint64(rng.Intn(8))
				}
			case 1: // changes CPU half way
				r = append(r, mkRun((cpu+1)%cpus-1, rng.Intn(3), last[(cpu+1)%cpus], 2)...)
			}
			for _, e := range r {
				last[e.CPU+1] = max(last[e.CPU+1], e.Time)
			}
			runs = append(runs, r)
		}
		var want []event.Event
		var before [][]event.Event
		for _, r := range runs {
			want = append(want, r...)
			before = append(before, slices.Clone(r))
		}
		sortEvents(want)
		got := MergeByTime(runs...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: merge of %d runs differs from the stable sort of their concatenation\nruns %v\ngot  %v\nwant %v",
				round, len(runs), runs, got, want)
		}
		if !reflect.DeepEqual(runs, before) {
			t.Fatalf("round %d: the merge changed its inputs", round)
		}
		for i := range got {
			got[i].Time = ^uint64(0)
		}
		if !reflect.DeepEqual(runs, before) {
			t.Fatalf("round %d: the merged slice aliases a run", round)
		}

		// MergeRuns merges the same, and hands back its groups: read in
		// order, they are the merge's events stably sorted by CPU, one CPU
		// a stretch of non-empty runs.
		merged, byCPU := MergeRuns(runs...)
		if !reflect.DeepEqual(merged, want) || (merged == nil) != (byCPU == nil) {
			t.Fatalf("round %d: MergeRuns differs from MergeByTime, or groups %d runs of nothing", round, len(byCPU))
		}
		byCPUWant := slices.Clone(merged)
		slices.SortStableFunc(byCPUWant, func(x, y event.Event) int { return cmp.Compare(x.CPU, y.CPU) })
		for i, r := range byCPU {
			if len(r) == 0 || slices.ContainsFunc(r, func(e event.Event) bool { return e.CPU != r[0].CPU }) ||
				i > 0 && byCPU[i-1][0].CPU > r[0].CPU {
				t.Fatalf("round %d: group run %d is empty, of two CPUs or before a lower CPU: %v", round, i, byCPU)
			}
		}
		if got := slices.Concat(byCPU...); !reflect.DeepEqual(got, byCPUWant) {
			t.Fatalf("round %d: the groups are not each CPU's events of the merge in order\ngroups %v\nwant   %v", round, byCPU, byCPUWant)
		}
		if !reflect.DeepEqual(runs, before) {
			t.Fatalf("round %d: MergeRuns changed its inputs", round)
		}

		// The same events with some CPUs pulled, in time order or not. A
		// pulled chain's events leave the runs, cut where the CPU changes,
		// and come back a run at a time.
		chains := make([][][]event.Event, cpus) // by CPU + 1
		inOrder := make([]bool, cpus)
		at := make([]uint64, cpus)
		for i := range inOrder {
			inOrder[i] = true
		}
		for _, r := range runs {
			for _, e := range r {
				inOrder[e.CPU+1] = inOrder[e.CPU+1] && at[e.CPU+1] <= e.Time
				at[e.CPU+1] = e.Time
			}
		}
		pull := make([]bool, cpus)
		steppedBack := false
		for i := range pull {
			pull[i] = rng.Intn(2) == 0
			steppedBack = steppedBack || pull[i] && !inOrder[i]
		}
		var rest [][]event.Event
		for _, r := range runs {
			var kept []event.Event
			for len(r) > 0 {
				n := 1
				for n < len(r) && r[n].CPU == r[0].CPU {
					n++
				}
				if c := r[0].CPU + 1; pull[c] {
					chains[c] = append(chains[c], r[:n])
					if rng.Intn(3) == 0 {
						chains[c] = append(chains[c], nil) // an empty draw
					}
				} else {
					kept = append(kept, r[:n]...)
				}
				r = r[n:]
			}
			rest = append(rest, kept)
		}
		hint, broken := 0, false
		var sources []RunSource
		var made []*pulledChain
		for c := range chains {
			if !pull[c] {
				continue
			}
			failAfter := -1
			if rng.Intn(16) == 0 {
				failAfter, broken = rng.Intn(len(chains[c])+1), true
			}
			for _, r := range chains[c] {
				hint += len(r)
			}
			made = append(made, newPulledChain(chains[c], failAfter))
			sources = append(sources, made[len(made)-1])
		}
		if len(sources) > 0 {
			pulledRounds++
		}
		// Compared after MergeFrom has closed the chains, so with every pulled
		// run poisoned: got holds copies, or it holds poison.
		got, err := MergeFrom(hint*rng.Intn(3)/2, Cap{}, sources, rest...)
		if steppedBack && !broken {
			steppedBackRounds++
		}
		if broken {
			brokenRounds++
			if !errors.Is(err, errChainBroke) || got != nil {
				t.Fatalf("round %d: a chain that breaks gave %d events and error %v", round, len(got), err)
			}
		} else if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: merge with %d chains pulled differs from the stable sort (%v)\nruns %v\npull %v\ngot  %v\nwant %v",
				round, len(sources), err, runs, pull, got, want)
		}
		for _, c := range made {
			if c.closed != 1 {
				t.Fatalf("round %d: a pulled chain was closed %d times", round, c.closed)
			}
		}

		// The same merge capped: the first k events of the order are the
		// head, dropped, and at most max after them are kept. With no pulled
		// chain stepping back that is the stable sort's events k to k+max. A
		// chain that steps back fails the
		// merge wherever the merge sees it, and a page that reaches the end
		// of the order has drawn every run.
		k, max := rng.Intn(len(want)+1), 1+rng.Intn(len(want)+1)
		page := Cap{Max: max}
		if skip := k; skip > 0 {
			page.Head = func(*event.Event) bool {
				skip--
				return skip >= 0
			}
		}
		made, sources = made[:0], sources[:0]
		for c := range chains {
			if pull[c] {
				made = append(made, newPulledChain(chains[c], -1))
				sources = append(sources, made[len(made)-1])
			}
		}
		got, err = MergeFrom(hint*rng.Intn(3)/2, page, sources, rest...)
		wantPage := want[k:min(k+max, len(want))]
		if len(wantPage) == 0 {
			wantPage = nil
		}
		switch {
		case !steppedBack:
			cappedRounds++
			if err != nil || !reflect.DeepEqual(got, wantPage) {
				t.Fatalf("round %d: merge capped at %d after a head of %d, %d chains pulled (%v): %d events, want events %d to %d of the stable sort\nruns %v\ngot  %v\nwant %v",
					round, max, k, len(sources), err, len(got), k, k+len(wantPage), runs, got, wantPage)
			}
		case k+max >= len(want):
			cappedStepBackRounds++
			if !errors.Is(err, ErrSteppedBack) || got != nil {
				t.Fatalf("round %d: a capped merge that drew a chain stepping back gave %d events and error %v", round, len(got), err)
			}
		case err != nil && !errors.Is(err, ErrSteppedBack):
			t.Fatalf("round %d: a capped merge failed with %v", round, err)
		}
		for _, c := range made {
			if c.closed != 1 {
				t.Fatalf("round %d: a pulled chain of a capped merge was closed %d times", round, c.closed)
			}
		}
	}
	if pulledRounds < 100 || brokenRounds < 10 || steppedBackRounds < 30 || cappedRounds < 300 || cappedStepBackRounds < 10 {
		t.Fatalf("%d rounds pulled a chain, %d broke one and %d pulled one that steps back; %d capped rounds were exact and %d saw a step back: the generator exercises nothing",
			pulledRounds, brokenRounds, steppedBackRounds, cappedRounds, cappedStepBackRounds)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the merges, %d after", goroutines, runtime.NumGoroutine())
		}
	}
}

// densityCapture logs events of 1+payload words into 1024-word buffers on
// two CPUs until `blocks` buffers have sealed: files of equal block count
// that differ in how many events a block holds.
func densityCapture(t *testing.T, payload, blocks int) []byte {
	t.Helper()
	tr := core.MustNew(core.Config{CPUs: 2, BufWords: 1024, NumBufs: 4,
		Mode: core.Stream, Clock: clock.NewManual(1)})
	tr.EnableAll()
	var buf bytes.Buffer
	wait := CaptureAsync(tr, &buf)
	data := make([]uint64, payload)
	for i := 0; tr.Stats().Seals < uint64(blocks); i++ {
		tr.CPU(i%2).LogWords(event.MajorTest, 1, data)
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEventsBetweenAllocsIndependentOfBlockDensity: a window read decodes
// into one scratch and clones each block's share as one run, so what it
// allocates is counted in blocks, not in events.
func TestEventsBetweenAllocsIndependentOfBlockDensity(t *testing.T) {
	allocs := func(payload int) (perCall float64, blocks, events int) {
		rd := newReader(t, densityCapture(t, payload, 12))
		fi := buildFull(t, rd, 2)
		perCall = testing.AllocsPerRun(20, func() {
			evs, err := rd.EventsBetween(fi, 0, ^uint64(0))
			if err != nil {
				t.Fatal(err)
			}
			events = len(evs)
		})
		return perCall, rd.NumBlocks(), events
	}
	sparse, blocks, few := allocs(15)
	dense, _, many := allocs(0)
	if many < 8*few {
		t.Fatalf("fixtures hold %d and %d events: not a density contrast", few, many)
	}
	// Two per block (its run's events and payload slab), and the scratch,
	// the run list and the merge besides.
	if bound := float64(2*blocks + 24); sparse > bound || dense > bound {
		t.Errorf("a whole-range EventsBetween over %d blocks allocates %.0f objects at %d events, %.0f at %d; want at most %.0f at both",
			blocks, sparse, few, dense, many, bound)
	}
}

// TestReadAllAllocatesTwoCopies holds the whole-file read of the corpus
// file under the two copies of the event structs, decode and merge, that it
// made while a block was decoded into a run of its own. It makes one now,
// which TestReadAllAllocatesItsAnswerOnce pins on a trace of enough blocks
// to show it; this one keeps the sixteen-block file, where a worker's
// scratch is a sixteenth of everything, from going back.
func TestReadAllAllocatesTwoCopies(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "corpus", "clean.ktr"))
	if err != nil {
		t.Fatal(err)
	}
	rd := newReader(t, data)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	evs, _, err := rd.ReadAllParallel(1)
	runtime.ReadMemStats(&after)
	if err != nil || len(evs) < 10000 {
		t.Fatalf("fixture read gave %d events: %v", len(evs), err)
	}
	payload := uint64(0)
	for i := range evs {
		payload += 8 * uint64(len(evs[i].Data))
	}
	got := after.TotalAlloc - before.TotalAlloc
	stride := uint64(blockStride(rd.Meta().BufWords)) + 8*uint64(rd.Meta().BufWords) // one worker's bytes and words
	events := uint64(len(evs)) * uint64(unsafe.Sizeof(event.Event{}))
	if max := events*22/10 + payload*9/8 + stride; got > max {
		t.Errorf("ReadAllParallel(1) of %d events allocates %d bytes: %.2f event copies after %d payload and %d scratch bytes; want at most 2.2",
			len(evs), got, float64(got-payload-stride)/float64(events), payload, stride)
	}
}

// TestReadAllAllocatesItsAnswerOnce pins the whole-file reads, strict and
// tolerant, at one copy of what they return: the events, written once by
// the merge that decodes them, and the reader's own copy of the payload
// words that the events' Data point into. No per-block run, no payload
// slab: the tenth over is the workers' byte scratch, the block slots and
// the chains' chunks. (A run per block and the merged slice after it came
// to 1.6.)
func TestReadAllAllocatesItsAnswerOnce(t *testing.T) {
	data := runCapture(t, 4, 1024, 30000)
	rd := newReader(t, data)
	if rd.NumBlocks() < 64 {
		t.Fatalf("want a trace of at least 64 blocks, got %d", rd.NumBlocks())
	}
	words := uint64(0)
	hdr := make([]byte, blockHdrWords*8)
	for k := 0; k < rd.NumBlocks(); k++ {
		h, err := rd.readBlock(k, hdr)
		if err != nil {
			t.Fatal(err)
		}
		words += uint64(h.NWords)
	}
	reads := []struct {
		name string
		read func(workers int) ([]event.Event, error)
	}{
		{"strict", func(workers int) ([]event.Event, error) {
			evs, _, err := rd.ReadAllParallel(workers)
			return evs, err
		}},
		{"salvage", func(workers int) ([]event.Event, error) {
			evs, _, err := Salvage(bytes.NewReader(data), int64(len(data)), workers)
			return evs, err
		}},
	}
	for _, r := range reads {
		for _, workers := range []int{1, 4} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			evs, err := r.read(workers)
			runtime.ReadMemStats(&after)
			if err != nil || len(evs) < 30000 {
				t.Fatalf("%s, %d workers: %d events: %v", r.name, workers, len(evs), err)
			}
			got := after.TotalAlloc - before.TotalAlloc
			answer := uint64(len(evs))*uint64(unsafe.Sizeof(event.Event{})) + 8*words
			if got > answer*11/10 {
				t.Errorf("%s, %d workers: %d events over %d payload words allocate %d bytes, %.2f times the %d they come to; want at most 1.1",
					r.name, workers, len(evs), words, got, float64(got)/float64(answer), answer)
			}
		}
	}
}
