package daemon

import (
	"bytes"
	"net"
	"testing"

	"k42trace/internal/live"
	"k42trace/internal/stream"
)

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
