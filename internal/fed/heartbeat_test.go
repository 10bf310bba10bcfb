package fed

import (
	"net/http"
	"net/url"
	"testing"

	"k42trace/internal/event"
	"k42trace/internal/live"
)

// TestHeartbeatFansDownTheMask drives Shard.heartbeat by hand against an
// aggregator, so no heartbeat period or TTL decides the outcome: a mask
// set before the shard's first beat is broadcast on that beat, a mask the
// shard already took is not broadcast again, a changed one is broadcast
// once, and the leaving beat takes nothing.
func TestHeartbeatFansDownTheMask(t *testing.T) {
	agg := startAgg(t, AggOptions{})
	defer agg.stop(t)
	// Built without AggHTTP, the shard runs no heartbeat loop: every beat
	// below is the test's own.
	c := live.NewCollector(live.Options{})
	s, err := NewShard(c, ShardOptions{Name: "h0", Advertise: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	s.opt.AggHTTP = agg.web.URL
	beat := func(leaving bool, wantFrames uint64, wantDesired string) {
		t.Helper()
		if err := s.heartbeat(leaving); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().CtrlMaskFrames; got != wantFrames {
			t.Errorf("%d mask frames fanned down, want %d", got, wantFrames)
		}
		if got := c.MaskStatus().DesiredMask; got != wantDesired {
			t.Errorf("shard's desired mask %q, want %q", got, wantDesired)
		}
	}
	applied := func(mask uint64) string { return event.MaskString(mask | event.MajorControl.Bit()) }

	beat(false, 0, "") // no mask was ever set: the reply names none
	maskA := event.MajorSched.Bit()
	postMask(t, agg.web.URL, maskA)
	beat(false, 1, applied(maskA))
	if got := agg.a.desiredMask(); got != applied(maskA) {
		t.Errorf("aggregator's desired mask %q, want %q", got, applied(maskA))
	}
	beat(false, 1, applied(maskA))
	postMask(t, agg.web.URL, maskA) // the same mask again
	beat(false, 1, applied(maskA))
	maskB := event.MajorTest.Bit() | event.MajorLock.Bit()
	postMask(t, agg.web.URL, maskB)
	beat(false, 2, applied(maskB))
	beat(false, 2, applied(maskB))
	postMask(t, agg.web.URL, ^uint64(0))
	beat(true, 2, applied(maskB))

	// The aggregator holds no producers: a targeted POST is refused and
	// leaves the desired mask alone.
	resp, err := http.PostForm(agg.web.URL+"/live/mask", url.Values{"mask": {"ctrl"}, "producer": {"2"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /live/mask producer=2: %s, want 400", resp.Status)
	}
	if got := agg.a.desiredMask(); got != applied(^uint64(0)) {
		t.Errorf("desired mask %q after the refused POST, want %q", got, applied(^uint64(0)))
	}
	if err := c.Drain(); err != nil {
		t.Error(err)
	}
}
