package ktrace_test

import (
	"bytes"
	"path/filepath"
	"testing"

	ktrace "k42trace"
)

// TestPublicAPIRoundTrip drives the full pipeline through the public
// facade only: trace -> file -> analysis.
func TestPublicAPIRoundTrip(t *testing.T) {
	tr := ktrace.MustNew(ktrace.Config{
		CPUs: 2, BufWords: 64, NumBufs: 4,
		Mode: ktrace.Stream, Clock: ktrace.NewManualClock(1),
	})
	tr.EnableAll()
	path := filepath.Join(t.TempDir(), "trace.ktr")
	wait, err := ktrace.WriteTraceFile(tr, path)
	if err != nil {
		t.Fatal(err)
	}
	reg := ktrace.NewRegistry()
	reg.MustRegister(ktrace.MajorUser, 20, "TRACE_APP_STEP", "64", "step %0[%lld]")
	for i := 0; i < 300; i++ {
		tr.CPU(i%2).Log1(ktrace.MajorUser, 20, uint64(i))
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	trace, meta, st, err := ktrace.OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Garbled() {
		t.Fatal("garbled")
	}
	if meta.CPUs != 2 || meta.BufWords != 64 {
		t.Errorf("meta %+v", meta)
	}
	n := 0
	for i := range trace.Events {
		e := &trace.Events[i]
		if e.Major() == ktrace.MajorUser {
			n++
			name, text := ktrace.Describe(reg, e)
			if name != "TRACE_APP_STEP" || text == "" {
				t.Fatalf("describe: %q %q", name, text)
			}
		}
	}
	if n != 300 {
		t.Fatalf("recovered %d events, want 300", n)
	}
	var buf bytes.Buffer
	lines, err := trace.List(&buf, ktrace.ListOptions{Limit: 10})
	if err != nil || lines != 10 {
		t.Fatalf("list: %d %v", lines, err)
	}
}

func TestPublicFlightRecorder(t *testing.T) {
	tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 64, NumBufs: 2})
	tr.Enable(ktrace.MajorTest)
	c := tr.CPU(0)
	for i := 0; i < 100; i++ {
		c.Log2(ktrace.MajorTest, 1, uint64(i), uint64(i*i))
	}
	evs, info := tr.Dump(0)
	if info.Stats.Garbled() || len(evs) == 0 {
		t.Fatalf("dump: %d events, %+v", len(evs), info)
	}
	tail := evs[max(len(evs)-3, 0):]
	if len(tail) != 3 || tail[2].Data[0] != 99 {
		t.Fatalf("tail: %+v", tail)
	}
}

func TestPublicPackHelpers(t *testing.T) {
	toks, err := ktrace.ParseTokens("32 32 str")
	if err != nil {
		t.Fatal(err)
	}
	words, err := ktrace.Pack(toks, []ktrace.Value{
		{Int: 1}, {Int: 2}, {Str: "hi", IsStr: true}})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := ktrace.Unpack(toks, words)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Int != 1 || vals[1].Int != 2 || vals[2].Str != "hi" {
		t.Fatalf("vals %+v", vals)
	}
}
