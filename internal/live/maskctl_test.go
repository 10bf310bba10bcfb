package live

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/relay"
	"k42trace/internal/stream"
)

// TestMetricsHostileLabels is the regression test for label escaping: a
// producer behind a hostile proxy (or a crafted disconnect reason) must
// not be able to break out of a label value and forge samples or split
// lines in the /metrics exposition.
func TestMetricsHostileLabels(t *testing.T) {
	s := Snapshot{
		Producers: []ProducerSnapshot{{
			ID:     1,
			Remote: "evil\"},fake_metric{x=\"\\oops\n127.0.0.1:1",
		}},
		Disconnects: map[string]uint64{"rea\"son\\\nsplit": 3},
	}
	var b strings.Builder
	writeMetricsSnapshot(&b, s)
	out := b.String()

	for _, want := range []string{
		`remote="evil\"},fake_metric{x=\"\\oops\n127.0.0.1:1"`,
		`tracecolld_disconnects_total{reason="rea\"son\\\nsplit"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing escaped form %q:\n%s", want, out)
		}
	}
	// The raw (unescaped) forms must be gone: no line may contain a bare
	// quote-brace breakout or be split by a label's newline.
	for _, raw := range []string{"evil\"}", "rea\"son"} {
		if strings.Contains(out, raw) {
			t.Errorf("metrics contain unescaped %q:\n%s", raw, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if unescaped := strings.Count(line, `"`) - strings.Count(line, `\"`); unescaped%2 != 0 {
			t.Errorf("unbalanced quotes in line %q", line)
		}
		if !strings.Contains(line, " ") {
			t.Errorf("sample line without a value (split by a label newline?): %q", line)
		}
	}
}

// TestMaskControlPlane drives the full dynamic-control loop in-process:
// collector mask state set before the producer exists (pending replay on
// connect), the HTTP POST/GET surface, targeted vs broadcast updates, the
// producer's tracer actually re-masking, and the in-band CtrlMaskChange
// markers landing in the spill and the analysis epochs.
func TestMaskControlPlane(t *testing.T) {
	var spill bytes.Buffer
	c := NewCollector(Options{CPUSlots: 8, Window: time.Second, Spill: &spill})
	srv, err := relay.ListenConns("127.0.0.1:0", c.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	narrow := event.MajorControl.Bit() | event.MajorTest.Bit()
	wantNarrow := event.MaskString(narrow)
	wantWide := event.MaskString(^uint64(0))

	// Set the desired mask while no producer is connected: the collector
	// must replay it the moment one registers.
	if err := c.SetMask(narrow, 0); err != nil {
		t.Fatal(err)
	}

	tr := core.MustNew(core.Config{CPUs: 1, BufWords: 64, NumBufs: 8, Mode: core.Stream})
	tr.EnableAll()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cpu := tr.CPU(0)
		for n := uint64(0); !stop.Load(); n++ {
			cpu.Log1(event.MajorTest, 1, n)
			cpu.Log1(event.MajorMem, 2, n)
			if n%64 == 0 {
				runtime.Gosched()
			}
		}
	}()
	sendDone := make(chan relay.ReliableStats, 1)
	go func() {
		st, err := relay.SendReliable(tr, srv.Addr(), relay.ReliableOptions{
			OnControl: relay.MaskApplier(tr),
		})
		if err != nil {
			t.Error(err)
		}
		sendDone <- st
	}()

	waitFor(t, "pending mask replayed and applied", func() bool {
		st := c.MaskStatus()
		return len(st.Producers) == 1 &&
			st.Producers[0].SentMask == wantNarrow &&
			st.Producers[0].AppliedMask == wantNarrow
	})
	if got := tr.Mask(); got != narrow {
		t.Errorf("tracer mask after replay = %#x, want %#x", got, narrow)
	}

	web := httptest.NewServer(c.Mux())
	defer web.Close()
	post := func(vals url.Values) *http.Response {
		t.Helper()
		resp, err := web.Client().PostForm(web.URL+"/live/mask", vals)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Broadcast widen over HTTP.
	if resp := post(url.Values{"mask": {"all"}}); resp.StatusCode != 200 {
		t.Fatalf("POST mask=all: %d", resp.StatusCode)
	}
	waitFor(t, "widened mask applied", func() bool {
		st := c.MaskStatus()
		return st.DesiredMask == wantWide && st.Producers[0].AppliedMask == wantWide
	})

	// Targeted narrow: producer 1 re-masks, the broadcast mask stays wide.
	if resp := post(url.Values{"mask": {"ctrl,test"}, "producer": {"1"}}); resp.StatusCode != 200 {
		t.Fatalf("POST targeted mask: %d", resp.StatusCode)
	}
	waitFor(t, "targeted mask applied", func() bool {
		return c.MaskStatus().Producers[0].AppliedMask == wantNarrow
	})
	if st := c.MaskStatus(); st.DesiredMask != wantWide {
		t.Errorf("targeted send moved the desired mask to %s", st.DesiredMask)
	}

	// Error paths.
	if resp := post(url.Values{"mask": {"no-such-major"}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mask spec: %d, want 400", resp.StatusCode)
	}
	if resp := post(url.Values{"mask": {"all"}, "producer": {"99"}}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown producer: %d, want 404", resp.StatusCode)
	}
	resp, err := web.Client().Get(web.URL + "/live/mask")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("GET /live/mask: %d", resp.StatusCode)
	}

	stop.Store(true)
	wg.Wait()
	tr.Stop()
	st := <-sendDone
	if st.ControlFrames < 3 {
		t.Errorf("producer saw %d control frames, want >= 3", st.ControlFrames)
	}
	srv.Close()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	// The spill must carry the in-band epoch markers (replay, widen,
	// targeted narrow = three mask changes on one CPU), and the analysis
	// side must have turned them into epochs.
	rd, err := stream.NewReader(bytes.NewReader(spill.Bytes()), int64(spill.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	marks := 0
	for _, e := range evs {
		if e.Major() == event.MajorControl && e.Minor() == event.CtrlMaskChange {
			marks++
		}
	}
	if marks < 3 {
		t.Errorf("spill holds %d CtrlMaskChange markers, want >= 3", marks)
	}
	snap := c.Snapshot()
	if len(snap.MaskEpochs) == 0 {
		t.Error("snapshot has no mask epochs")
	}
	if snap.Producers[0].MaskChanges < 3 {
		t.Errorf("producer snapshot reports %d mask changes, want >= 3", snap.Producers[0].MaskChanges)
	}

	var metrics strings.Builder
	c.WriteMetrics(&metrics)
	for _, want := range []string{
		"tracecolld_mask_updates_sent_total 3",
		`tracecolld_applied_mask_majors{producer="1"} 2`,
		"tracecolld_desired_mask_majors 64",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
