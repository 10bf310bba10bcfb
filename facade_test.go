package ktrace_test

import (
	"bytes"
	"strings"
	"testing"

	ktrace "k42trace"
)

func TestFacadeRedactAndCrashDump(t *testing.T) {
	tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 128, NumBufs: 2})
	tr.EnableAll()
	c := tr.CPU(0)
	c.Log1(ktrace.MajorMem, 1, 0x11)
	c.Log1(ktrace.MajorUser, 2, 0x22)
	var dump bytes.Buffer
	if err := ktrace.WriteCrashDump(tr, &dump); err != nil {
		t.Fatal(err)
	}
	rd, err := ktrace.NewReader(bytes.NewReader(dump.Bytes()), int64(dump.Len()))
	if err != nil || rd.NumBlocks() != 1 {
		t.Fatalf("dump of %d blocks: %v", rd.NumBlocks(), err)
	}
	_, words, err := rd.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	if evs, _ := ktrace.DecodeBuffer(0, words); len(evs) < 2 {
		t.Fatalf("the dump holds %d events", len(evs))
	}
	red := ktrace.Redact(words, ktrace.VisibleMask(ktrace.MajorMem))
	revs, _ := ktrace.DecodeBuffer(0, red)
	for _, e := range revs {
		if e.Major() == ktrace.MajorUser {
			t.Fatal("redaction leaked a USER event")
		}
	}
}

func TestFacadeLockOrderAndOverviewOnTrace(t *testing.T) {
	tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 256, NumBufs: 2})
	tr.EnableAll()
	tr.CPU(0).Log1(ktrace.MajorUser, 33, 1)
	evs, _ := tr.Dump(0)
	trace := ktrace.BuildTrace(evs, 1e9, ktrace.DefaultRegistry())
	rep := trace.LockOrder()
	if len(rep.Cycles) != 0 {
		t.Error("no locks, no cycles expected")
	}
	if !strings.Contains(rep.String(), "consistent") {
		t.Errorf("report: %s", rep)
	}
	if mp := trace.MemProfile(); mp.Samples != 0 {
		t.Error("no hwc samples expected")
	}
}

func TestFacadeClockHelpers(t *testing.T) {
	s := ktrace.NewSyncClock()
	if s.Hz() != 1e9 {
		t.Error("sync hz")
	}
	m := ktrace.NewManualClock(2)
	if m.Now(0) != 2 || m.Now(0) != 4 {
		t.Error("manual clock")
	}
	var src ktrace.ClockSource = m
	_ = src
}

func TestOpenTraceFileErrors(t *testing.T) {
	if _, _, _, err := ktrace.OpenTraceFile("/nonexistent/file.ktr"); err == nil {
		t.Error("missing file accepted")
	}
}
