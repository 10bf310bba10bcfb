package live

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"k42trace/internal/analysis"
)

// TestMetricsGolden pins the /metrics page byte for byte: a connected
// producer with an applied mask and a disconnected one without, the hostile
// remote and disconnect reason of TestMetricsHostileLabels next to a plain
// reason, a set desired mask, and then the page of a collector that has
// seen nothing (no producers, no desired mask). Delete the golden file and
// rerun the test to record it again.
func TestMetricsGolden(t *testing.T) {
	full := Snapshot{
		Stats: analysis.LiveStats{Events: 7000, Blocks: 8, LiveWindows: 4, EvictedWindows: 5, LateEvents: 6},
		Producers: []ProducerSnapshot{{
			ID: 1, Remote: "127.0.0.1:40001", Connected: true,
			Blocks: 11, Bytes: 45056, Events: 3000, Garbled: 1, StuckSeals: 2, Reordered: 3,
			LagWindows: 1, SentMask: "0x2001", AppliedMask: "0x2001", MaskChanges: 2,
		}, {
			ID: 2, Remote: "evil\"},fake_metric{x=\"\\oops\n127.0.0.1:1",
			Blocks: 5, Bytes: 20480, Events: 4000,
		}},
		Disconnects: map[string]uint64{"rea\"son\\\nsplit": 3, "drain-cut": 1},
		DesiredMask: "0x7",
		MaskSends:   9,
	}
	var b bytes.Buffer
	writeMetricsSnapshot(&b, full)
	writeMetricsSnapshot(&b, Snapshot{})
	checkGolden(t, filepath.Join("testdata", "metrics.golden"), b.Bytes())
}

// checkGolden compares got with the golden file at path. A missing file is
// written and the test fails, so that a re-recorded page is looked at
// before it is kept.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; review it and rerun", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("page differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
