package relay

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"k42trace/internal/event"
	"k42trace/internal/faultinject"
	"k42trace/internal/stream"
)

// faultTee plugs into SendThrough: it records the clean byte stream the
// tracer produced and forwards it through a fault injector onto the
// connection, so a test holds both what was sent and what the collector
// actually received.
type faultTee struct {
	inj   *faultinject.Injector
	clean bytes.Buffer
}

func (ft *faultTee) Write(p []byte) (int, error) {
	ft.clean.Write(p)
	return ft.inj.Write(p)
}

func (ft *faultTee) Flush() error { return ft.inj.Flush() }

// sendFaulty runs a full loopback session — tracer → injector → server →
// fileCollector — and returns the clean bytes, the collected (corrupted)
// file, and the injector's fault stats.
func sendFaulty(t *testing.T, f faultinject.StreamFaults, n int) (clean, collected []byte, st faultinject.Stats) {
	t.Helper()
	fc := collectFile(t)
	tr := newStreamTracer()
	ft := &faultTee{}
	sendDone := make(chan error, 1)
	go func() {
		_, err := SendThrough(tr, fc.srv.Addr(), func(w io.Writer) io.Writer {
			ft.inj = faultinject.NewInjector(w, f)
			return ft
		})
		sendDone <- err
	}()
	for i := 0; i < n; i++ {
		tr.CPU(i%2).Log1(event.MajorTest, 1, uint64(i))
	}
	tr.Stop()
	if err := <-sendDone; err != nil {
		t.Fatal(err)
	}
	collected, err := fc.close()
	if err != nil {
		t.Fatal(err)
	}
	return ft.clean.Bytes(), collected, ft.inj.Stats()
}

// expectedSurvivors rebuilds the event stream a perfect consumer should
// recover: the clean trace restricted to the blocks that survived the
// faulty transport (identified by CPU+Seq in the collected file).
func expectedSurvivors(t *testing.T, clean, collected []byte) []event.Event {
	t.Helper()
	crd, err := stream.NewReader(bytes.NewReader(collected), int64(len(collected)))
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		cpu int
		seq uint64
	}
	alive := map[key]bool{}
	for k := 0; k < crd.NumBlocks(); k++ {
		h, _, err := crd.Block(k)
		if err != nil {
			t.Fatal(err)
		}
		alive[key{h.CPU, h.Seq}] = true
	}
	rd, err := stream.NewReader(bytes.NewReader(clean), int64(len(clean)))
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
		if alive[key{h.CPU, h.Seq}] {
			if err := wr.WriteBlock(h, words); err != nil {
				t.Fatal(err)
			}
		}
	}
	srd, err := stream.NewReader(bytes.NewReader(out.Bytes()), int64(out.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs, _, err := srd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestRelayDropDupReorderSalvage is the full relay chaos round trip:
// blocks are dropped, duplicated, and reordered in flight with a fixed
// seed; the collected file must salvage down to exactly the events of
// the surviving blocks, with duplicate and loss accounting matching the
// injector's own counts.
func TestRelayDropDupReorderSalvage(t *testing.T) {
	faults := faultinject.StreamFaults{
		Seed: 21, DropProb: 0.12, DupProb: 0.12, ReorderWindow: 3,
	}
	clean, collected, st := sendFaulty(t, faults, 2000)
	if st.Dropped == 0 || st.Duplicated == 0 || st.Reordered == 0 {
		t.Fatalf("faults not exercised: %v", st)
	}

	// Determinism: replaying the injector offline over the recorded clean
	// bytes must reproduce the collected file byte for byte — the relay
	// transport added or removed nothing of its own.
	var offline bytes.Buffer
	inj := faultinject.NewInjector(&offline, faults)
	if _, err := inj.Write(clean); err != nil {
		t.Fatal(err)
	}
	if err := inj.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(offline.Bytes(), collected) {
		t.Errorf("offline replay (%d bytes) differs from collected file (%d bytes)",
			offline.Len(), len(collected))
	}
	if inj.Stats() != st {
		t.Errorf("offline replay stats %v, live %v", inj.Stats(), st)
	}

	want := expectedSurvivors(t, clean, collected)
	got, rep, err := stream.Salvage(bytes.NewReader(collected), int64(len(collected)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksSkipped != 0 {
		t.Errorf("drop/dup/reorder corrupts no bytes, yet %d blocks quarantined:\n%s",
			rep.BlocksSkipped, rep)
	}
	if rep.DupBlocks != st.Duplicated {
		t.Errorf("salvage removed %d duplicates, injector made %d", rep.DupBlocks, st.Duplicated)
	}
	if rep.LostBlocks > st.Dropped {
		t.Errorf("salvage reports %d lost blocks, only %d were dropped", rep.LostBlocks, st.Dropped)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("salvaged %d events, survivor blocks hold %d", len(got), len(want))
	}
}

// TestRelayReorderOnlyIsLossless: a reordering transport loses nothing —
// salvage must reconstruct the clean stream exactly.
func TestRelayReorderOnlyIsLossless(t *testing.T) {
	clean, collected, st := sendFaulty(t,
		faultinject.StreamFaults{Seed: 7, ReorderWindow: 4}, 1200)
	if st.Reordered == 0 {
		t.Fatalf("no reordering at window 4: %v", st)
	}
	rd, err := stream.NewReader(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := stream.Salvage(bytes.NewReader(collected), int64(len(collected)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostBlocks != 0 || rep.BlocksSkipped != 0 || rep.DupBlocks != 0 {
		t.Errorf("lossless transport reported losses:\n%s", rep)
	}
	if rep.Reordered == 0 {
		t.Error("reordered delivery not detected")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("salvaged %d events, clean stream has %d", len(got), len(want))
	}
}

// TestRelayDupDeliveryStillSavable: duplicated blocks must not trip the
// strict reader either — the collected file keeps them and ReadAll sees the
// extra copies, while salvage dedupes them away.
func TestRelayDupDeliveryStillSavable(t *testing.T) {
	_, collected, st := sendFaulty(t,
		faultinject.StreamFaults{Seed: 3, DupProb: 0.25}, 1000)
	if st.Duplicated == 0 {
		t.Fatalf("no duplicates at p=0.25: %v", st)
	}
	rd, err := stream.NewReader(bytes.NewReader(collected), int64(len(collected)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumBlocks() != st.Blocks+st.Duplicated {
		t.Errorf("collected %d blocks, injector saw %d (+%d dup)",
			rd.NumBlocks(), st.Blocks, st.Duplicated)
	}
	_, rep, err := stream.Salvage(bytes.NewReader(collected), int64(len(collected)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DupBlocks != st.Duplicated {
		t.Errorf("salvage removed %d duplicates, injector made %d", rep.DupBlocks, st.Duplicated)
	}
}
