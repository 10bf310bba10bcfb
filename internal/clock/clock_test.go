package clock

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestSyncMonotone(t *testing.T) {
	s := NewSync()
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		now := s.Now(i % 4)
		if now < prev {
			t.Fatalf("Sync went backwards: %d after %d", now, prev)
		}
		prev = now
	}
	if s.Hz() != 1e9 {
		t.Errorf("Hz = %d", s.Hz())
	}
}

func TestManualDeterministic(t *testing.T) {
	m := NewManual(5)
	if got := m.Now(0); got != 5 {
		t.Errorf("first read %d", got)
	}
	if got := m.Now(3); got != 10 {
		t.Errorf("second read %d", got)
	}
	m.advance(100)
	if got := m.Now(0); got != 115 {
		t.Errorf("after advance %d", got)
	}
	if NewManual(0).Now(0) != 1 {
		t.Error("zero step should default to 1")
	}
}

func TestManualConcurrentStrictlyIncreasing(t *testing.T) {
	m := NewManual(1)
	const g, per = 8, 1000
	results := make([][]uint64, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := make([]uint64, per)
			for j := range r {
				r[j] = m.Now(i)
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool, g*per)
	for _, r := range results {
		for j, v := range r {
			if j > 0 && v <= r[j-1] {
				t.Fatal("per-goroutine readings not increasing")
			}
			if seen[v] {
				t.Fatalf("duplicate timestamp %d", v)
			}
			seen[v] = true
		}
	}
}

func TestUnwrapperNoWrap(t *testing.T) {
	var u Unwrapper
	u.Seed(5 << 32)
	if got := u.Full(100); got != 5<<32|100 {
		t.Errorf("got %x", got)
	}
	if got := u.Full(200); got != 5<<32|200 {
		t.Errorf("got %x", got)
	}
}

func TestUnwrapperWrap(t *testing.T) {
	var u Unwrapper
	u.Seed(uint64(math.MaxUint32 - 10)) // epoch 0, last near wrap
	if got := u.Full(math.MaxUint32 - 5); got != uint64(math.MaxUint32-5) {
		t.Errorf("pre-wrap: got %x", got)
	}
	if got := u.Full(3); got != 1<<32|3 {
		t.Errorf("post-wrap: got %x", got)
	}
	if got := u.Full(4); got != 1<<32|4 {
		t.Errorf("post-wrap steady: got %x", got)
	}
}

// Property: for any non-decreasing true 64-bit sequence starting at the
// seed, feeding the low 32 bits through the unwrapper recovers the full
// values, provided consecutive deltas stay under 2^32 (the anchor-per-
// buffer guarantee).
func TestUnwrapperQuick(t *testing.T) {
	f := func(seed uint64, deltas []uint32) bool {
		var u Unwrapper
		u.Seed(seed)
		cur := seed
		for _, d := range deltas {
			cur += uint64(d)
			if u.Full(uint32(cur)) != cur {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTSCSkewAndDrift(t *testing.T) {
	m := NewManual(1)
	tsc := NewTSC(m, []TSCParam{
		{Offset: 0, DriftPPM: 0},
		{Offset: 1000, DriftPPM: 0},
	})
	// CPU 1 should lead CPU 0 by the offset (base advances 1 per read).
	a := tsc.Now(0)
	b := tsc.Now(1)
	if b-a < 999 || b-a > 1001 {
		t.Errorf("offset not applied: a=%d b=%d", a, b)
	}
	if tsc.Hz() != 1e9 {
		t.Errorf("Hz = %d", tsc.Hz())
	}
	// Out-of-range CPU uses zero skew.
	c := tsc.Now(7)
	if c < b-1001 {
		t.Errorf("out-of-range cpu reading unreasonable: %d", c)
	}
}

func TestInterpolatorRejectsBadAnchors(t *testing.T) {
	if _, err := NewInterpolator(Anchor{Raw: 10, Wall: 10}, Anchor{Raw: 5, Wall: 20}); err == nil {
		t.Error("non-increasing raw should fail")
	}
	if _, err := NewInterpolator(Anchor{Raw: 10, Wall: 20}, Anchor{Raw: 20, Wall: 10}); err == nil {
		t.Error("non-increasing wall should fail")
	}
}

func TestInterpolatorExact(t *testing.T) {
	ip, err := NewInterpolator(Anchor{Raw: 1000, Wall: 0}, Anchor{Raw: 2000, Wall: 500})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ raw, want uint64 }{
		{1000, 0}, {2000, 500}, {1500, 250}, {1100, 50},
		{2200, 600}, // extrapolation past end
	}
	for _, c := range cases {
		if got := ip.Wall(c.raw); got != c.want {
			t.Errorf("Wall(%d) = %d, want %d", c.raw, got, c.want)
		}
	}
}

// C9: reconstruct wall time across CPUs with different offsets and drifts,
// using only start/end anchors, and verify the error bound is tiny. This is
// the x86/LTT interpolation experiment.
func TestC9TSCInterpolation(t *testing.T) {
	m := NewManual(1)
	params := []TSCParam{
		{Offset: 0, DriftPPM: 0},
		{Offset: 123456789, DriftPPM: 80},  // fast by 80 ppm
		{Offset: 987654321, DriftPPM: -50}, // slow by 50 ppm
		{Offset: 42, DriftPPM: 200},
	}
	tsc := NewTSC(m, params)
	for cpu := range params {
		start := tsc.TakeAnchor(cpu)
		// Simulate a long run: advance true time far between anchors.
		m.advance(10_000_000_000) // 10s in ns
		end := tsc.TakeAnchor(cpu)
		ip, err := NewInterpolator(start, end)
		if err != nil {
			t.Fatal(err)
		}
		// Events logged at known true times in between must map back with
		// error well under a microsecond over a 10-second window.
		for frac := 1; frac <= 9; frac++ {
			trueWall := start.Wall + uint64(frac)*1_000_000_000
			raw := rawAt(params[cpu], trueWall)
			got := ip.Wall(raw)
			diff := int64(got) - int64(trueWall)
			if diff < 0 {
				diff = -diff
			}
			if diff > 1000 { // 1us over a 10s window
				t.Errorf("cpu %d frac %d: wall error %dns", cpu, frac, diff)
			}
		}
	}
}

// rawAt computes the raw counter for a given true time, mirroring TSC.Now.
func rawAt(p TSCParam, w uint64) uint64 {
	drift := int64(w) / 1e6 * p.DriftPPM
	return p.Offset + w + uint64(drift)
}
