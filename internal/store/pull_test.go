package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"k42trace/internal/event"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// pulledQueries are the unkept queries whose blocks the merge may pull:
// no predicate, the whole range and ranges that cut blocks at either end.
// (A pid predicate would not compare across uploads: MatchStream replays
// one scheduling state per CPU number.)
func pulledQueries(tenant string, base []event.Event) []Params {
	lo, hi := base[0].Time, base[len(base)-1].Time
	return []Params{
		{Tenant: tenant},
		{Tenant: tenant, From: lo + (hi-lo)/4, To: lo + 3*(hi-lo)/4},
		{Tenant: tenant, To: lo + (hi-lo)/2},
		{Tenant: tenant, From: lo + (hi-lo)/3, Agg: "overview"},
		{Tenant: tenant, From: lo + (hi-lo)/4, To: lo + 3*(hi-lo)/4, HasMajor: true, Major: event.MajorSched},
	}
}

// bothWays runs fn against a store that scans on one worker and one that
// scans on four; either way the chains draw in step with the merge.
func bothWays(t *testing.T, fn func(t *testing.T, workers int)) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) { fn(t, workers) })
	}
}

// TestOverlappingUploadsAnswerInMergeOrder: a tenant holds two uploads that
// overlap in time, so on the CPUs both have the chain of blocks is not in
// time order and the index says so before anything is merged: those CPUs
// are cloned and sorted, the CPUs only one upload has are pulled, and the
// answer is what filtering the merge of both uploads gives.
func TestOverlappingUploadsAnswerInMergeOrder(t *testing.T) {
	four := sdetSpill(t, 42)
	var two bytes.Buffer
	if _, err := sdet.Run(sdet.Config{CPUs: 2, Trace: sdet.TraceOn,
		Params: sdet.Params{ScriptsPerCPU: 16, CommandsPerScript: 20, Seed: 43},
		Sample: 10_000, HWCSample: 12_000}, &two); err != nil {
		t.Fatal(err)
	}
	baseFour, _ := readAllEvents(t, four)
	baseTwo, _ := readAllEvents(t, two.Bytes())
	// One segment an upload, so the tenant's chains are the first upload's
	// blocks and then the second's, in catalog (MinTime, ID) order.
	uploads, bases := [][]byte{four, two.Bytes()}, [][]event.Event{baseFour, baseTwo}
	if baseTwo[0].Time < baseFour[0].Time {
		bases[0], bases[1] = bases[1], bases[0]
	}
	base := stream.MergeByTime(bases...)
	if baseTwo[0].Time > baseFour[len(baseFour)-1].Time || baseFour[0].Time > baseTwo[len(baseTwo)-1].Time {
		t.Fatal("the uploads do not overlap in time")
	}
	bothWays(t, func(t *testing.T, workers int) {
		s := openStore(t, Options{Workers: workers})
		for _, data := range uploads {
			ingestBytes(t, s, "acme", data)
		}
		ps := pullSet{p: Params{Tenant: "acme"}, to: ^uint64(0)}
		if err := ps.plan(pinAll(s, "acme"), workers); err != nil || fmt.Sprint(ps.cpus) != "[false false true true]" {
			t.Fatalf("CPUs pulled: %v (%v); want the two CPUs that only one upload has", ps.cpus, err)
		}
		for _, p := range pulledQueries("acme", base) {
			got, err := s.Query(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := MatchStream(base, p); len(want) == 0 || !sameEvents(got.Events, want) {
				t.Errorf("%v: %d events, the merged uploads hold %d (or order differs)", p.values(), len(got.Events), len(want))
			}
		}
		// A full scan pulls nothing, and its aggregation walks the runs the
		// merge grouped: CPUs 0 and 1, out of order across the uploads, are
		// each the one run the merge sorted them into.
		p := Params{Tenant: "acme", Agg: "lockstat", NoPrune: true}
		if runs := runsFormatAsPositions(t, s, p, base, workers); runs[0] != 1 || runs[1] != 1 || runs[2] < 2 {
			t.Errorf("%v: runs by CPU %v; want CPUs 0 and 1 sorted into one each", p.values(), runs)
		}
	})
}

// runsFormatAsPositions asks s a query whose merge pulls nothing, holds its
// events to the filtered merge of base and its report to the one a Result
// of the same events formats with no runs kept — each CPU's share viewed by
// its positions — and returns how many runs the merge kept of each CPU.
func runsFormatAsPositions(t *testing.T, s *Store, p Params, base []event.Event, workers int) map[int]int {
	t.Helper()
	res, err := s.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := MatchStream(base, p); res.byCPU == nil || !sameEvents(res.Events, want) {
		t.Fatalf("%v: runs kept %v, %d events, the filtered merge holds %d",
			p.values(), res.byCPU != nil, len(res.Events), len(want))
	}
	var got, want bytes.Buffer
	if err := res.Format(&got, workers); err != nil {
		t.Fatal(err)
	}
	if err := (&Result{Params: p, Hz: res.Hz, Events: res.Events}).Format(&want, workers); err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%v: walking the runs formats %d bytes, viewing positions %d, and they differ", p.values(), got.Len(), want.Len())
	}
	runs := map[int]int{}
	for _, r := range res.byCPU {
		runs[r[0].CPU]++
	}
	return runs
}

// pinAll returns the tenant's segments in catalog order, as a query that
// prunes none would pin them (without the pin: nothing retires them here).
func pinAll(s *Store, tenant string) []*segment {
	tn := s.getTenant(tenant)
	tn.mu.Lock()
	defer tn.mu.Unlock()
	var all []*segment
	for i := range tn.man.Segments {
		all = append(all, tn.segs[tn.man.Segments[i].ID])
	}
	return all
}

// rotBlock rewrites an event in the middle of one of the spill's blocks as
// a clock anchor that says the time of the block's first event: the block's
// stamps then go back once, inside it, while its bounds stay between its
// neighbours'. It returns the rewritten spill.
func rotBlock(t *testing.T, data []byte, block int) []byte {
	t.Helper()
	rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	wr, err := stream.NewWriter(&out, rd.Meta())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < rd.NumBlocks(); k++ {
		h, words, err := rd.Block(k)
		if err != nil {
			t.Fatal(err)
		}
		if k == block {
			// A two-word event in the block's second half; the block's first
			// event is its anchor, whose payload is the full stamp.
			at := -1
			for pos := 0; pos < len(words); pos += event.Header(words[pos]).Len() {
				hdr := event.Header(words[pos])
				if !hdr.WellFormed() {
					t.Fatalf("block %d word %d is no event header", block, pos)
				}
				if pos > len(words)/2 && hdr.Len() == 2 && hdr.Major() != event.MajorControl {
					at = pos
					break
				}
			}
			anchor := event.Header(words[0])
			if at < 0 || anchor.Major() != event.MajorControl || anchor.Minor() != event.CtrlClockAnchor || anchor.Len() < 2 {
				t.Fatalf("block %d: no anchor, or no two-word event to rewrite", block)
			}
			first := words[1]
			words[at] = uint64(event.MakeHeader(uint32(first), 2, event.MajorControl, event.CtrlClockAnchor))
			words[at+1] = first
		}
		if err := wr.WriteBlock(h, words); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestRottedBlockIsSortedWhereItLies: a block whose stamps go back inside
// it, between bounds that still lie between its neighbours', is pulled like
// any other — the index shows its CPU's chain in order — and sorted in the
// chain's scratch before the merge draws it. The answer is the filtered
// ReadAll merge, which sorts that CPU's whole chain, whole or a page at a
// time.
func TestRottedBlockIsSortedWhereItLies(t *testing.T) {
	clean := sdetSpill(t, 42)
	const rotted = 9
	data := rotBlock(t, clean, rotted)
	base, _ := readAllEvents(t, data)
	cleanBase, _ := readAllEvents(t, clean)
	if len(base) != len(cleanBase) || sameEvents(base, cleanBase) {
		t.Fatalf("rewriting block %d left %d events of %d, or changed nothing", rotted, len(base), len(cleanBase))
	}
	bothWays(t, func(t *testing.T, workers int) {
		s := openStore(t, Options{Workers: workers})
		res := ingestBytes(t, s, "acme", data)
		if !res.Salvage.Clean() {
			t.Fatalf("the rotted spill needed salvage: %v", res.Salvage)
		}
		// The one stored block that is out of order inside is the rotted one,
		// and the index still shows its CPU's chain in order.
		sg := pinAll(s, "acme")
		rd, fi, err := sg[0].open(workers)
		if err != nil {
			t.Fatal(err)
		}
		var rottedCPUs []int
		var rotten *stream.BlockSummary
		for k := range fi.Blocks {
			evs, _, err := rd.Events(k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.IsSortedFunc(evs, byTime) {
				rottedCPUs, rotten = append(rottedCPUs, fi.Blocks[k].CPU), &fi.Blocks[k]
			}
		}
		ps := pullSet{p: Params{Tenant: "acme"}, to: ^uint64(0)}
		if err := ps.plan(sg, workers); err != nil || len(rottedCPUs) != 1 || !ps.cpus[rottedCPUs[0]] {
			t.Fatalf("blocks out of order inside on CPUs %v, CPUs pulled %v (%v): want one such block and its CPU pulled", rottedCPUs, ps.cpus, err)
		}
		for _, p := range pulledQueries("acme", base) {
			got, err := s.Query(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := MatchStream(base, p); len(want) == 0 || !sameEvents(got.Events, want) {
				t.Errorf("%v: %d events, the spill's merge holds %d (or order differs)", p.values(), len(got.Events), len(want))
			}
		}
		// Once more a page at a time, over the rotted block's span: every page
		// but the last stops inside it, which is exact because the block was
		// sorted before the merge drew it (pulled on the first page, cloned
		// past a cursor after that), so no chain steps back behind a stop.
		p := Params{Tenant: "acme", From: rotten.MinTime, To: rotten.MaxTime + 1}
		want := MatchStream(base, p)
		if evs, _, pages := walkPages(t, s, p, len(want)/4+1, nil); pages < 4 || !sameEvents(evs, want) {
			t.Errorf("%v: %d pages of %d events, the spill's merge holds %d (or order differs)", p.values(), pages, len(evs), len(want))
		}
		// A full scan pulls nothing and clones the rotted block too: its CPU
		// is out of order among the runs, and the aggregation walks the one
		// run the merge sorted it into.
		p = Params{Tenant: "acme", Agg: "overview", NoPrune: true}
		if runs := runsFormatAsPositions(t, s, p, base, workers); runs[rottedCPUs[0]] != 1 || len(runs) < 2 {
			t.Errorf("%v: runs by CPU %v; want the rotted block's CPU %d sorted into one", p.values(), runs, rottedCPUs[0])
		}
	})
}

// TestBrokenChainFailsTheQuery: a block that stops reading under the merge
// — after the scan, which never touched it — fails the query with the
// block's error, leaves no scan goroutine behind and every scratch back
// on the free list: the same query answers again once the block reads.
func TestBrokenChainFailsTheQuery(t *testing.T) {
	data := sdetSpill(t, 42)
	base, _ := readAllEvents(t, data)
	bothWays(t, func(t *testing.T, workers int) {
		s := openStore(t, Options{Workers: workers})
		ingestBytes(t, s, "acme", data)
		p := Params{Tenant: "acme"}
		if res, err := s.Query(p); err != nil || !sameEvents(res.Events, base) {
			t.Fatalf("query before the damage: %v", err)
		}
		sg := pinAll(s, "acme")[0]
		rd, _, err := sg.open(workers)
		if err != nil {
			t.Fatal(err)
		}
		// Flip the magic of the file's last block, in place: the segment
		// stays open and its index stays loaded.
		f, err := os.OpenFile(sg.path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		off := st.Size() - (st.Size()-64)/int64(rd.NumBlocks())
		magic := make([]byte, 8)
		if _, err := f.ReadAt(magic, off); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, 8), off); err != nil {
			t.Fatal(err)
		}
		goroutines := runtime.NumGoroutine()
		var damage *stream.BlockDamageError
		if _, err := s.Query(p); !errors.As(err, &damage) || damage.Block != rd.NumBlocks()-1 {
			t.Fatalf("query over a block with no magic: %v", err)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines before the failed query, %d after", goroutines, runtime.NumGoroutine())
			}
		}
		if _, err := f.WriteAt(magic, off); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.Query(p)
		runtime.ReadMemStats(&after)
		if err != nil || !sameEvents(res.Events, base) {
			t.Fatalf("query after the repair: %v", err)
		}
		// Had the failed query dropped its scratch, this one would make a
		// block's bytes, words and events again for every chain.
		got := after.TotalAlloc - before.TotalAlloc
		answer := uint64(len(base))*uint64(unsafe.Sizeof(event.Event{})) + payloadBytes(base)
		if workers == 1 && got > answer*9/8+4<<10 {
			t.Errorf("the query after a failed one allocates %d bytes for an answer of %d", got, answer)
		}
	})
}
