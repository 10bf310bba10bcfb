package shm_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"k42trace/internal/event"
	"k42trace/internal/shm"
	"k42trace/internal/stream"
)

func segPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "seg.shm")
}

// smallGeo keeps tests fast: buffers seal after a handful of events.
var smallGeo = shm.Geometry{CPUs: 2, BufWords: 256, NumBufs: 4, MaxClients: 4}

// TestCreateAttachDrain is the subsystem's round trip in one process:
// an agent owns the segment, a client attaches and logs through the
// mapping, and the agent's scan drains sealed buffers through the
// standard Capture path into a readable trace file.
func TestCreateAttachDrain(t *testing.T) {
	path := segPath(t)
	ag, err := shm.Create(path, smallGeo)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	wait := stream.CaptureAsync(ag, &buf)

	cl, err := shm.Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		c := cl.CPU(i % cl.NumCPUs())
		if !c.Log2(event.MajorTest, 7, uint64(i), uint64(i)*3) {
			t.Fatalf("event %d not logged", i)
		}
	}
	if err := cl.Detach(); err != nil {
		t.Fatal(err)
	}
	ag.Stop()
	st, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks == 0 {
		t.Fatal("no blocks captured")
	}
	if err := ag.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := stream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs, ds, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Garbled() || ds.SkippedWords != 0 {
		t.Errorf("clean run decoded with garble: %+v", ds)
	}
	got := 0
	last := map[int]uint64{}
	for _, ev := range evs {
		if ev.Header.Major() == event.MajorTest {
			got++
		}
		if ev.Time < last[ev.CPU] {
			t.Fatalf("cpu %d timestamp regressed: %d after %d", ev.CPU, ev.Time, last[ev.CPU])
		}
		last[ev.CPU] = ev.Time
	}
	if got != n {
		t.Errorf("decoded %d test events, logged %d", got, n)
	}
}

// TestAttachErrors: attaching needs a published segment.
func TestAttachErrors(t *testing.T) {
	if _, err := shm.Attach(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("attach to missing file succeeded")
	}
	junk := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(junk, bytes.Repeat([]byte{0xA5}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := shm.Attach(junk); err == nil {
		t.Error("attach to junk file succeeded")
	}
}

// TestClientTableLifecycle: the table bounds concurrent attachments, and
// Detach returns the slot for reuse.
func TestClientTableLifecycle(t *testing.T) {
	path := segPath(t)
	g := smallGeo
	g.MaxClients = 1
	ag, err := shm.Create(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { drainAgent(t, ag) }()

	c1, err := shm.Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shm.Attach(path); err == nil {
		t.Error("second attach succeeded with MaxClients=1")
	}
	if err := c1.Detach(); err != nil {
		t.Fatal(err)
	}
	c2, err := shm.Attach(path)
	if err != nil {
		t.Fatalf("attach after detach: %v", err)
	}
	if err := c2.Detach(); err != nil {
		t.Fatal(err)
	}
}

// TestMaskGatesClients: the segment header's mask word is the shared
// switchboard — the agent flips it, attached processes observe it on
// their next entry-point check.
func TestMaskGatesClients(t *testing.T) {
	path := segPath(t)
	ag, err := shm.Create(path, smallGeo)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { drainAgent(t, ag) }()

	cl, err := shm.Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Detach()
	c := cl.CPU(0)
	if !c.Log0(event.MajorTest, 1) {
		t.Fatal("log with open mask failed")
	}
	ag.SetMask(0)
	if c.Log0(event.MajorTest, 1) {
		t.Error("log succeeded with zero mask")
	}
	if c.Enabled(event.MajorTest) {
		t.Error("Enabled true with zero mask")
	}
	ag.SetMask(event.MajorSched.Bit())
	if c.Log0(event.MajorTest, 1) {
		t.Error("log succeeded for masked-out major")
	}
	if !c.Log0(event.MajorSched, 1) {
		t.Error("log failed for enabled major")
	}
}

// TestInspectLive snapshots a segment mid-run without attaching.
func TestInspectLive(t *testing.T) {
	path := segPath(t)
	ag, err := shm.Create(path, smallGeo)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { drainAgent(t, ag) }()

	cl, err := shm.Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Detach()
	c := cl.CPU(1)
	for i := 0; i < 100; i++ {
		c.Log1(event.MajorTest, 2, uint64(i))
	}
	info, err := shm.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "ready" {
		t.Errorf("state %q, want ready", info.State)
	}
	if len(info.Clients) != 1 || info.Clients[0].Pid != os.Getpid() {
		t.Errorf("clients %+v, want this pid attached", info.Clients)
	}
	if info.CPUs[1].Index == 0 {
		t.Error("cpu 1 logged but index is 0")
	}
	if info.CPUs[1].Stats.Events < 100 {
		t.Errorf("cpu 1 stats events %d, want >= 100", info.CPUs[1].Stats.Events)
	}
	var out bytes.Buffer
	info.Format(&out)
	for _, want := range []string{"state: ready", "cpu 1:", "slot 0: pid"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestDeterministicClockReproducible: with the deterministic segment
// clock, the same logging sequence produces byte-identical trace files
// across independent segments — the property the cross-process parity
// test builds on.
func TestDeterministicClockReproducible(t *testing.T) {
	run := func() []byte {
		path := segPath(t)
		g := smallGeo
		g.DeterministicClock = true
		ag, err := shm.Create(path, g)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		wait := stream.CaptureAsync(ag, &buf)
		cl, err := shm.Attach(path)
		if err != nil {
			t.Fatal(err)
		}
		c := cl.CPU(0)
		for i := 0; i < 500; i++ {
			c.Log1(event.MajorTest, 3, uint64(i))
		}
		if err := cl.Detach(); err != nil {
			t.Fatal(err)
		}
		ag.Stop()
		if _, err := wait(); err != nil {
			t.Fatal(err)
		}
		ag.Close()
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Error("deterministic-clock runs produced different trace bytes")
	}
}

// drainAgent stops an agent whose Sealed channel has no consumer yet,
// consuming the final flush so Stop does not block.
func drainAgent(t *testing.T, ag *shm.Agent) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range ag.Sealed() {
			ag.Release(s)
		}
	}()
	ag.Stop()
	<-done
	if err := ag.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPerClientMask: the daemon narrows one client without touching the
// rest — the per-client override composes with the global mask in either
// order, and Inspect surfaces both words.
func TestPerClientMask(t *testing.T) {
	path := segPath(t)
	ag, err := shm.Create(path, smallGeo)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := shm.Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := shm.Attach(path)
	if err != nil {
		t.Fatal(err)
	}

	// Narrow c2 to control events only; c1 is untouched.
	if err := ag.SetClientMask(c2.Slot(), event.MajorControl.Bit()); err != nil {
		t.Fatal(err)
	}
	if c2.CPU(0).Log1(event.MajorTest, 1, 1) {
		t.Error("narrowed client logged a masked-off major")
	}
	if !c1.CPU(0).Log1(event.MajorTest, 1, 2) {
		t.Error("unrelated client was affected by the per-client mask")
	}
	if ov, eff := ag.ClientMask(c2.Slot()); ov != event.MajorControl.Bit() || eff != event.MajorControl.Bit() {
		t.Errorf("ClientMask = %#x/%#x, want ctrl bit twice", ov, eff)
	}

	// Global narrowing composes: eff = global AND override.
	ag.SetMask(event.MajorTest.Bit())
	if _, eff := ag.ClientMask(c2.Slot()); eff != 0 {
		t.Errorf("eff mask %#x after disjoint global/override, want 0", eff)
	}
	if !c1.CPU(0).Log1(event.MajorTest, 1, 3) {
		t.Error("c1 must still log under the narrowed global mask")
	}

	// Restoring the override restores eff to the global mask.
	if err := ag.SetClientMask(c2.Slot(), ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if !c2.CPU(0).Log1(event.MajorTest, 1, 4) {
		t.Error("restored client cannot log")
	}

	if err := ag.SetClientMask(-1, 0); err == nil {
		t.Error("out-of-range slot must be rejected")
	}

	// Inspect surfaces the mask words and Format prints the narrowing.
	if err := ag.SetClientMask(c2.Slot(), event.MajorControl.Bit()); err != nil {
		t.Fatal(err)
	}
	info, err := shm.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	info.Format(&sb)
	out := sb.String()
	if !strings.Contains(out, "eff mask") || !strings.Contains(out, "narrowed") {
		t.Errorf("Format missing per-client mask info:\n%s", out)
	}

	if err := c1.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Detach(); err != nil {
		t.Fatal(err)
	}
	drainAgent(t, ag)
}
