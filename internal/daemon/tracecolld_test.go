package daemon

import (
	"bytes"
	"context"
	"io"
	"net"
	"regexp"
	"strconv"
	"testing"

	"k42trace/internal/live"
	"k42trace/internal/stream"
)

// TestQueueDefaultIsTheLibrarys: -queue defaults to the depth a collector
// given none gets, as its usage line says.
func TestQueueDefaultIsTheLibrarys(t *testing.T) {
	var stderr bytes.Buffer
	if code := Tracecolld(context.Background(), []string{"-h"}, io.Discard, &stderr); code != 0 {
		t.Fatalf("tracecolld -h: exit %d", code)
	}
	m := regexp.MustCompile(`\n  -queue int\n.*\(default (\d+)\)\n`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no -queue default in the usage:\n%s", &stderr)
	}
	if want := strconv.Itoa(live.DefaultQueueBlocks); m[1] != want {
		t.Errorf("-queue defaults to %s, a collector given no depth to %s", m[1], want)
	}
}

// TestDrainSummaryListsDisconnectsByReason: the drain summary prints one
// line per disconnect reason, sorted by reason as the metrics page is. A
// producer torn mid-block fixes the session and is cut ("read-error"); one
// with other block geometry is refused ("meta-mismatch").
func TestDrainSummaryListsDisconnectsByReason(t *testing.T) {
	defer settles(t)()
	colld := start(t, Tracecolld, "-listen", lo, "-http", lo)
	m := colld.expect(`producers on (\S+), http on (\S+)\n`)
	addr, base := m[1], "http://"+m[2]

	clean := capture(t, 64)
	rd, err := stream.NewReader(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	g := rd.Meta().Geometry()
	send := func(b []byte) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		hangUp(t, conn)
	}
	send(clean[:g.FileHeaderBytes+g.BlockBytes+g.BlockBytes/2])
	send(capture(t, 128))
	eventually(t, "both disconnects counted", func() bool {
		var snap live.Snapshot
		getJSON(t, base+"/live/overview", &snap)
		return snap.Disconnects["read-error"] == 1 && snap.Disconnects["meta-mismatch"] == 1
	})

	colld.stopped(0)
	colld.expect(`tracecolld: disconnects meta-mismatch: 1\ntracecolld: disconnects read-error: 1\n`)
}
