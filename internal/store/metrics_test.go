package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMetricsGolden pins the /metrics page byte for byte: two tenants
// with catalog gauges, one of which has only ingested; every recorder fed
// on the other, a compaction error and a GC error among them; and both
// histograms fed fixed durations, on a bucket bound and past the last.
// Delete the golden file and rerun the test to record it again.
func TestMetricsGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(corpusDir, "crosscpu-io.ktr"))
	if err != nil {
		t.Fatal(err)
	}
	now := int64(1_700_000_000)
	s := openStore(t, Options{Workers: 2, Now: fixedNow(&now)})
	ingestBytes(t, s, "acme", data)
	ingestBytes(t, s, "globex", data)

	m := &s.metrics
	for i, d := range []time.Duration{300 * time.Microsecond, 5 * time.Millisecond, 40 * time.Millisecond, 2 * time.Second, 7 * time.Second} {
		var err error
		switch i {
		case 1:
			err = errors.New("bad query")
		case 2:
			err = fmt.Errorf("%w: seg-1.ktr", ErrGone)
		}
		m.query("acme", d, 3+i, 10*i, i%2, err)
		m.admission("acme", admQueued, d/2)
	}
	m.admission("acme", admImmediate, 0)
	m.admission("acme", admRejected, 0)
	m.cacheScan("acme", 4, 2)
	m.cacheScan("acme", 0, 0)
	m.cacheEvict(3)
	m.compact("acme", 5)
	m.gc("acme", 2, 4096)
	m.maintError("acme", "compact")
	m.maintError("acme", "gc")
	m.maintError("acme", "gc")

	var b bytes.Buffer
	m.Write(&b, s)
	checkGolden(t, filepath.Join("testdata", "metrics.golden"), b.Bytes())
}

// TestMetricsRecordingAllocatesNothing pins the record path: the recorders
// every query, page, ingest and maintenance pass calls allocate nothing for
// a tenant the metrics have already seen.
func TestMetricsRecordingAllocatesNothing(t *testing.T) {
	var m Metrics
	m.init()
	res := &IngestResult{Events: 100, Blocks: 2}
	gone := fmt.Errorf("%w: seg-1.ktr", ErrGone)
	m.ingest("acme", res)
	for name, record := range map[string]func(){
		"query":     func() { m.query("acme", 3*time.Millisecond, 4, 5, 1, nil) },
		"queryGone": func() { m.query("acme", 3*time.Millisecond, 4, 5, 1, gone) },
		"cacheScan": func() { m.cacheScan("acme", 2, 1) },
		"admission": func() { m.admission("acme", admQueued, time.Millisecond) },
		"ingest":    func() { m.ingest("acme", res) },
		"compact":   func() { m.compact("acme", 3) },
		"gc":        func() { m.gc("acme", 1, 512) },
	} {
		if n := testing.AllocsPerRun(100, record); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

// checkGolden compares got with the golden file at path. A missing file is
// written and the test fails, so that a re-recorded page is looked at
// before it is kept.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
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
