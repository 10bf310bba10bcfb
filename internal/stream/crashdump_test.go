package stream

import (
	"bytes"
	"reflect"
	"testing"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
)

// crashDump runs a 2-CPU flight recorder well past its ring, so that each
// CPU's oldest resident block has Seq > 0 and its current one is partial,
// and returns the tracer with its dump. With killed set, a writer on CPU 0
// reserves space late in the run and never commits it, which leaves a
// resident block anomalous.
func crashDump(t testing.TB, killed bool) (*core.Tracer, []byte) {
	t.Helper()
	tr := core.MustNew(core.Config{CPUs: 2, BufWords: 64, NumBufs: 4, Clock: clock.NewManual(1)})
	tr.EnableAll()
	for i := 0; i < 601; i++ {
		c := tr.CPU(i % 2)
		if killed && i == 500 {
			c.ReserveOnly(event.MajorTest, 2, 3)
		}
		c.Log1(event.MajorTest, 1, uint64(i))
	}
	var buf bytes.Buffer
	if err := WriteCrashDump(tr, &buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// TestCrashDumpRoundTrip: a crash dump is a trace file. The strict reader
// and the salvager read it alike, per CPU event for event as Tracer.Dump
// reads the live recorder, with the same anomaly count per CPU, and the
// salvager finds no block duplicated, lost, reordered or quarantined.
func TestCrashDumpRoundTrip(t *testing.T) {
	for _, killed := range []bool{false, true} {
		tr, data := crashDump(t, killed)
		rd := newReader(t, data)
		if m := rd.Meta(); m != (Meta{BufWords: 64, CPUs: 2, ClockHz: 1e9}) {
			t.Fatalf("meta %+v", m)
		}
		evs, _, err := rd.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		anoms, err := rd.Anomalies()
		if err != nil {
			t.Fatal(err)
		}
		last := map[int]BlockHeader{}
		for k := 0; k < rd.NumBlocks(); k++ {
			h, _, err := rd.Block(k)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := last[h.CPU]; !ok && h.Seq == 0 || ok && (prev.partial() || h.Seq != prev.Seq+1) {
				t.Fatalf("killed=%v: block %d is cpu %d seq %d after %+v: not a wrapped ring oldest first", killed, k, h.CPU, h.Seq, prev)
			}
			last[h.CPU] = h
		}
		for cpu := 0; cpu < 2; cpu++ {
			if !last[cpu].partial() {
				t.Fatalf("killed=%v: cpu %d's current buffer %+v is not partial", killed, cpu, last[cpu])
			}
			live, info := tr.Dump(cpu)
			var dumped []event.Event
			for _, e := range evs {
				if e.CPU == cpu {
					dumped = append(dumped, e)
				}
			}
			// The whole-file read merges by time, and the stale words a
			// killed writer leaves in a wrapped ring decode to events of an
			// older generation: the merge moves them to their time.
			sortEvents(live)
			if len(live) == 0 || !reflect.DeepEqual(dumped, live) {
				t.Fatalf("killed=%v cpu %d: the dump reads %d events, Tracer.Dump %d, or they differ", killed, cpu, len(dumped), len(live))
			}
			n := 0
			for _, h := range anoms {
				if h.CPU == cpu {
					n++
				}
			}
			if want := killed && cpu == 0; n != info.Anomalies || want != (n > 0) {
				t.Errorf("killed=%v cpu %d: %d anomalous blocks in the dump, Tracer.Dump counts %d", killed, cpu, n, info.Anomalies)
			}
		}
		salvaged, rep, err := Salvage(bytes.NewReader(data), int64(len(data)), 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(salvaged, evs) || rep.DupBlocks+rep.LostBlocks+rep.Reordered+rep.BlocksSkipped != 0 ||
			!reflect.DeepEqual(rep.Anomalous, anoms) {
			t.Errorf("killed=%v: salvage differs from the strict read:\n%s", killed, rep)
		}
		if !killed && !rep.Clean() {
			t.Errorf("the dump of a sound recorder does not salvage clean:\n%s", rep)
		}
	}
}

// TestCrashDumpDetectsKilledWriter: a writer killed between reserving and
// committing leaves its block anomalous in the dump, and the hole it left
// is skipped, both by the strict reader and by the salvager.
func TestCrashDumpDetectsKilledWriter(t *testing.T) {
	tr := core.MustNew(core.Config{CPUs: 1, BufWords: 32, NumBufs: 2, Clock: clock.NewManual(1)})
	tr.EnableAll()
	c := tr.CPU(0)
	c.Log1(event.MajorTest, 1, 1)
	c.ReserveOnly(event.MajorTest, 2, 3) // reserved, never written
	c.Log1(event.MajorTest, 3, 3)
	var buf bytes.Buffer
	if err := WriteCrashDump(tr, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	rd := newReader(t, data)
	_, st, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	anoms, err := rd.Anomalies()
	if err != nil {
		t.Fatal(err)
	}
	if len(anoms) != 1 || st.SkippedWords == 0 {
		t.Errorf("strict read: %d anomalous blocks, %d skipped words; want 1 and some", len(anoms), st.SkippedWords)
	}
	_, rep, err := Salvage(bytes.NewReader(data), int64(len(data)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Anomalous) != 1 || rep.Stats.SkippedWords != st.SkippedWords {
		t.Errorf("salvage: %d anomalous blocks, %d skipped words; the strict read %d, %d",
			len(rep.Anomalous), rep.Stats.SkippedWords, len(anoms), st.SkippedWords)
	}
}
