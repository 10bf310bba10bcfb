package analysis

import (
	"bytes"
	"strings"
	"testing"

	"k42trace/internal/event"
	"k42trace/internal/ksim"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

func hwcSample(cpu int, ts, sym, cycles, instr, miss, remote uint64) event.Event {
	return mk(cpu, ts, event.MajorMem, ksim.EvMemHWC, sym, cycles, instr, miss, remote)
}

func TestMemProfileCrafted(t *testing.T) {
	evs := []event.Event{
		mk(0, 1, event.MajorSample, ksim.EvSymDef, append([]uint64{1}, packTestStr("_wordcopy_fwd_aligned")...)...),
		mk(0, 2, event.MajorSample, ksim.EvSymDef, append([]uint64{2}, packTestStr("FairBLock::_acquire()")...)...),
		hwcSample(0, 10, 1, 1000, 900, 50, 0),
		hwcSample(0, 20, 1, 1000, 950, 30, 0),
		hwcSample(1, 30, 2, 2000, 100, 5, 400),
	}
	tr := Build(evs, 1e9, event.Default)
	rep := tr.MemProfile()
	if rep.Samples != 3 {
		t.Fatalf("Samples = %d", rep.Samples)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Sorted by total misses: the spin row has 405 total, copy 80.
	if rep.Rows[0].Name != "FairBLock::_acquire()" {
		t.Errorf("top row %q", rep.Rows[0].Name)
	}
	copyRow := rep.Rows[1]
	if copyRow.Misses != 80 || copyRow.Cycles != 2000 || copyRow.Instr != 1850 {
		t.Errorf("copy row %+v", copyRow)
	}
	if got := copyRow.MPKC(); got != 40 {
		t.Errorf("MPKC = %f", got)
	}
	if rep.topRemote() != "FairBLock::_acquire()" {
		t.Errorf("topRemote = %q", rep.topRemote())
	}
	if rep.Totals.Misses != 85 || rep.Totals.Remote != 400 {
		t.Errorf("totals %+v", rep.Totals)
	}
	out := rep.String()
	if !strings.Contains(out, "memory hot spots") || !strings.Contains(out, "TOTAL") {
		t.Errorf("format:\n%s", out)
	}
}

func TestMemProfileEmpty(t *testing.T) {
	tr := Build(nil, 1e9, event.Default)
	rep := tr.MemProfile()
	if rep.Samples != 0 || len(rep.Rows) != 0 || rep.topRemote() != "" {
		t.Error("empty trace should yield empty report")
	}
	if rep.Totals.MPKC() != 0 {
		t.Error("zero-cycle MPKC should be 0")
	}
}

// TestEndToEndMemHotSpots is the §2 experiment: under coarse-lock
// contention the coherence-miss hot spot is the lock spin loop; the file
// data copier leads local cache misses in both configurations.
func TestEndToEndMemHotSpots(t *testing.T) {
	run := func(tuned bool) *MemReport {
		var buf bytes.Buffer
		p := sdet.Params{ScriptsPerCPU: 3, CommandsPerScript: 4, Seed: 9}
		if _, err := sdet.Run(sdet.Config{CPUs: 16, Tuned: tuned,
			Trace: sdet.TraceOn, Params: p, HWCSample: 20_000}, &buf); err != nil {
			t.Fatal(err)
		}
		rd, err := stream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		evs, _, err := rd.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return Build(evs, rd.Meta().ClockHz, event.Default).MemProfile()
	}
	coarse := run(false)
	if coarse.Samples == 0 {
		t.Fatal("no hwc samples")
	}
	if got := coarse.topRemote(); got != "FairBLock::_acquire()" {
		t.Errorf("coarse coherence hot spot = %q, want the spin loop\n%s", got, coarse)
	}
	tuned := run(true)
	if tuned.Totals.Remote*5 > coarse.Totals.Remote {
		t.Errorf("tuned remote misses (%d) should be well under coarse (%d)",
			tuned.Totals.Remote, coarse.Totals.Remote)
	}
}
