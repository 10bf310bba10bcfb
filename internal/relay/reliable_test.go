package relay

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"k42trace/internal/event"
	"k42trace/internal/stream"
)

// failAfter passes n bytes through and then fails every write — a
// deterministic stand-in for a connection dying mid-block. The failing
// write delivers its allowed prefix first, so the collector sees a torn
// block, exactly like a real half-flushed TCP stream.
type failAfter struct {
	w io.Writer
	n int
}

var errInjectedConn = errors.New("injected connection failure")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errInjectedConn
	}
	if len(p) > f.n {
		n, _ := f.w.Write(p[:f.n])
		f.n = 0
		return n, errInjectedConn
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// TestSendReliableRidesOutTornConnection kills the first connection
// mid-block (deterministically, via the wrap seam) and requires the
// sender to redial, re-send the failed block on a fresh stream, and
// deliver every event exactly once: the torn copy never parsed, so the
// retry is invisible in the collected file.
func TestSendReliableRidesOutTornConnection(t *testing.T) {
	fc := collectFile(t)
	tr := newStreamTracer()
	g := stream.Meta{BufWords: 64, CPUs: 2, ClockHz: 1}.Geometry()
	// First connection dies halfway through its second block.
	limit := g.FileHeaderBytes + g.BlockBytes + g.BlockBytes/2
	conns := 0
	wrap := func(w io.Writer) io.Writer {
		conns++
		if conns == 1 {
			return &failAfter{w: w, n: limit}
		}
		return w
	}
	done := make(chan struct{})
	var stats ReliableStats
	var sendErr error
	go func() {
		defer close(done)
		stats, sendErr = SendReliable(tr, fc.srv.Addr(), ReliableOptions{
			Wrap:           wrap,
			InitialBackoff: time.Millisecond,
		})
	}()
	const n = 500
	for i := 0; i < n; i++ {
		tr.CPU(i%2).Log1(event.MajorTest, 1, uint64(i))
	}
	tr.Stop()
	<-done
	if sendErr != nil {
		t.Fatalf("reliable send failed: %v", sendErr)
	}
	if stats.Dials != 2 || stats.Retries == 0 || stats.Dropped != 0 {
		t.Fatalf("stats %+v: want 2 dials, >=1 retry, 0 dropped", stats)
	}
	// The server saw a torn stream on the first connection; that error is
	// expected and must not have corrupted the file.
	file, _ := fc.close()
	rd, err := stream.NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumBlocks() != stats.Blocks {
		t.Errorf("collector saved %d blocks, sender delivered %d", rd.NumBlocks(), stats.Blocks)
	}
	evs, dst, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if dst.Garbled() {
		t.Fatal("garbled after reconnect")
	}
	got := 0
	for _, e := range evs {
		if e.Major() == event.MajorTest {
			got++
		}
	}
	if got != n {
		t.Fatalf("recovered %d events, want exactly %d (no loss, no duplicates)", got, n)
	}
}

// TestSendReliableGivesUpCleanly points the sender at a dead address with
// a small attempt budget: it must return an error, release every sealed
// buffer (Dropped counts them), and leave the tracer fully drained rather
// than wedging the traced system.
func TestSendReliableGivesUpCleanly(t *testing.T) {
	tr := newStreamTracer()
	for i := 0; i < 50; i++ {
		tr.CPU(i%2).Log1(event.MajorTest, 1, uint64(i))
	}
	tr.Stop()
	stats, err := SendReliable(tr, "127.0.0.1:1", ReliableOptions{
		InitialBackoff: time.Millisecond,
		MaxAttempts:    2,
	})
	if err == nil {
		t.Fatal("expected give-up error")
	}
	if stats.Blocks != 0 || stats.Dropped == 0 {
		t.Fatalf("stats %+v: want 0 delivered, >0 dropped", stats)
	}
	if _, ok := <-tr.Sealed(); ok {
		t.Fatal("sealed channel not fully drained after give-up")
	}
}

// TestListenConnsAssignsIdentity checks producers get distinct, stable
// ids in accept order.
func TestListenConnsAssignsIdentity(t *testing.T) {
	ids := make(chan uint64, 4)
	srv, err := ListenConns("127.0.0.1:0", func(c Conn) error {
		ids <- c.ID
		for {
			if _, _, err := c.Stream.Next(nil); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for round := 0; round < 3; round++ {
		tr := newStreamTracer()
		done := make(chan error, 1)
		go func() { _, err := SendThrough(tr, srv.Addr(), nil); done <- err }()
		tr.CPU(0).Log1(event.MajorTest, 1, 1)
		tr.Stop()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		// A sender is done once its bytes are in the socket, which can be
		// before the server has accepted it: wait for the handler, or Close
		// below drops the connection with the listener's backlog.
		id := <-ids
		if id == 0 || seen[id] {
			t.Fatalf("duplicate or zero producer id %d", id)
		}
		seen[id] = true
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
