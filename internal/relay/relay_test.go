package relay

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/stream"
)

func newStreamTracer() *core.Tracer {
	tr := core.MustNew(core.Config{
		CPUs: 2, BufWords: 64, NumBufs: 4,
		Mode: core.Stream, Clock: clock.NewManual(1),
	})
	tr.EnableAll()
	return tr
}

// fileCollector is the smallest receiver of the relay wire, for tests of
// what crossed it: each connection's blocks are copied, as they arrive,
// into one trace file whose header the first connection writes.
// Connections are served one at a time.
type fileCollector struct {
	srv   *Server
	mu    sync.Mutex
	file  bytes.Buffer
	wr    *stream.Writer
	stats stream.CopyStats // summed over every connection, however it ended
}

func collectFile(t *testing.T) *fileCollector {
	t.Helper()
	fc := &fileCollector{}
	srv, err := ListenConns("127.0.0.1:0", func(c Conn) error {
		fc.mu.Lock()
		defer fc.mu.Unlock()
		if fc.wr == nil {
			wr, err := stream.NewWriter(&fc.file, c.Stream.Meta())
			if err != nil {
				return err
			}
			fc.wr = wr
		}
		cs, err := c.Stream.CopyTo(fc.wr)
		fc.stats.Blocks += cs.Blocks
		fc.stats.Anomalies += cs.Anomalies
		fc.stats.Damaged += cs.Damaged
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fc.srv = srv
	return fc
}

// close closes the server, which waits for every connection to end, and
// returns the collected file and the server's error.
func (fc *fileCollector) close() ([]byte, error) {
	err := fc.srv.Close()
	return fc.file.Bytes(), err
}

func TestSendAndSaveOverLoopback(t *testing.T) {
	fc := collectFile(t)
	tr := newStreamTracer()
	sendDone := make(chan error, 1)
	go func() {
		_, err := SendThrough(tr, fc.srv.Addr(), nil)
		sendDone <- err
	}()
	const n = 500
	for i := 0; i < n; i++ {
		tr.CPU(i%2).Log1(event.MajorTest, 1, uint64(i))
	}
	tr.Stop()
	if err := <-sendDone; err != nil {
		t.Fatal(err)
	}
	file, err := fc.close()
	if err != nil {
		t.Fatal(err)
	}
	if fc.stats.Blocks == 0 || fc.stats.Anomalies != 0 {
		t.Fatalf("stats %+v", fc.stats)
	}
	// The collected bytes must be a valid trace file with all events.
	rd, err := stream.NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	evs, dst, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if dst.Garbled() {
		t.Fatal("garbled after network round trip")
	}
	got := 0
	for _, e := range evs {
		if e.Major() == event.MajorTest {
			got++
		}
	}
	if got != n {
		t.Fatalf("recovered %d events, want %d", got, n)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := ListenConns("127.0.0.1:0", func(Conn) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSendToUnreachableAddr(t *testing.T) {
	tr := newStreamTracer()
	defer tr.Stop()
	if _, err := SendThrough(tr, "127.0.0.1:1", nil); err == nil {
		t.Error("expected dial error")
	}
}

func TestBadStreamHeaderRejected(t *testing.T) {
	gotErr := make(chan struct{})
	srv, err := ListenConns("127.0.0.1:0", func(Conn) error {
		t.Error("handler should not run for a bad header")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(bytes.Repeat([]byte{0xee}, 200))
	conn.Close()
	close(gotErr)
	if err := srv.Close(); err == nil {
		t.Error("expected header error from Close")
	}
	<-gotErr
}

func TestBlockStreamTruncatedBlock(t *testing.T) {
	// Build a valid stream then cut a block in half; Next must return
	// ErrUnexpectedEOF, not silently succeed.
	tr := newStreamTracer()
	var buf bytes.Buffer
	wait := stream.CaptureAsync(tr, &buf)
	for i := 0; i < 200; i++ {
		tr.CPU(0).Log1(event.MajorTest, 1, uint64(i))
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-17]
	bs, err := stream.NewBlockStream(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for {
		_, _, err := bs.Next(nil)
		if err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == io.EOF {
		t.Error("truncation reported as clean EOF")
	}
}
