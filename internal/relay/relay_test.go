package relay

import (
	"bytes"
	"io"
	"net"
	"testing"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/faultinject"
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

func TestSendAndSaveOverLoopback(t *testing.T) {
	var file bytes.Buffer
	h, st := SaveHandler(&file)
	srv, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	tr := newStreamTracer()
	sendDone := make(chan error, 1)
	go func() {
		_, err := Send(tr, srv.Addr())
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
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	blocks, anoms := st.Snapshot()
	if blocks == 0 || anoms != 0 {
		t.Fatalf("blocks=%d anoms=%d", blocks, anoms)
	}
	// The collected bytes must be a valid trace file with all events.
	rd, err := stream.NewReader(bytes.NewReader(file.Bytes()), int64(file.Len()))
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

func TestLiveHandlerDeliversWhileRunning(t *testing.T) {
	h, ch := LiveHandler(16)
	srv, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := newStreamTracer()
	go Send(tr, srv.Addr())

	// Log enough to seal at least two buffers, then read them live before
	// the tracer stops.
	c := tr.CPU(0)
	for i := 0; i < 100; i++ {
		c.Log1(event.MajorTest, 1, uint64(i))
	}
	live := 0
	for b := range ch {
		evs, st := core.DecodeBuffer(b.Header.CPU, b.Words)
		if st.Garbled() {
			t.Fatal("live block garbled")
		}
		if len(evs) == 0 {
			t.Fatal("live block empty")
		}
		live++
		if live == 2 {
			break // received while the traced system was still running
		}
	}
	if live < 2 {
		t.Fatalf("only %d live blocks", live)
	}
	tr.Stop()
	for range ch {
	} // drain
}

func TestMultipleSendersAppendToOneFile(t *testing.T) {
	var file bytes.Buffer
	h, st := SaveHandler(&file)
	served := make(chan error, 1)
	srv, err := Listen("127.0.0.1:0", func(remote net.Addr, bs *stream.BlockStream) error {
		err := h(remote, bs)
		served <- err
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two sequential sessions with identical geometry.
	for round := 0; round < 2; round++ {
		tr := newStreamTracer()
		done := make(chan error, 1)
		go func() {
			_, err := Send(tr, srv.Addr())
			done <- err
		}()
		for i := 0; i < 200; i++ {
			tr.CPU(i%2).Log1(event.MajorTest, uint16(round), uint64(i))
		}
		tr.Stop()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		// A sender is done once its bytes are in the socket, which can be
		// before the server has accepted it: wait for the round's handler to
		// return, or Close below drops the connection with the listener's
		// backlog.
		if err := <-served; err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	blocks, _ := st.Snapshot()
	rd, err := stream.NewReader(bytes.NewReader(file.Bytes()), int64(file.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumBlocks() != blocks {
		t.Errorf("file has %d blocks, stats counted %d", rd.NumBlocks(), blocks)
	}
	evs, dst, err := rd.ReadAll()
	if err != nil || dst.Garbled() {
		t.Fatalf("err=%v garbled=%v", err, dst.Garbled())
	}
	byRound := map[uint16]int{}
	for _, e := range evs {
		if e.Major() == event.MajorTest {
			byRound[e.Minor()]++
		}
	}
	if byRound[0] != 200 || byRound[1] != 200 {
		t.Errorf("events per round: %v", byRound)
	}
}

func TestMismatchedSenderRejected(t *testing.T) {
	var file bytes.Buffer
	h, _ := SaveHandler(&file)
	srv, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	// First sender establishes 64-word geometry.
	tr1 := newStreamTracer()
	done := make(chan error, 1)
	go func() { _, err := Send(tr1, srv.Addr()); done <- err }()
	tr1.CPU(0).Log1(event.MajorTest, 1, 1)
	tr1.Stop()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Second sender uses different buffer geometry: must be rejected.
	tr2 := core.MustNew(core.Config{CPUs: 2, BufWords: 128, NumBufs: 4,
		Mode: core.Stream, Clock: clock.NewManual(1)})
	tr2.EnableAll()
	go func() { _, err := Send(tr2, srv.Addr()); done <- err }()
	tr2.CPU(0).Log1(event.MajorTest, 1, 1)
	tr2.Stop()
	<-done // sender side may or may not see the reset; the server must err
	if err := srv.Close(); err == nil {
		t.Error("mismatched metadata should surface as a server error")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", func(net.Addr, *stream.BlockStream) error { return nil })
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
	if _, err := Send(tr, "127.0.0.1:1"); err == nil {
		t.Error("expected dial error")
	}
}

func TestBadStreamHeaderRejected(t *testing.T) {
	gotErr := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", func(net.Addr, *stream.BlockStream) error {
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

// capturedTrace returns a clean trace file of n events over two CPUs.
func capturedTrace(t *testing.T, n int) []byte {
	t.Helper()
	tr := newStreamTracer()
	var buf bytes.Buffer
	wait := stream.CaptureAsync(tr, &buf)
	for i := 0; i < n; i++ {
		tr.CPU(i%2).Log1(event.MajorTest, 1, uint64(i))
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// saveRaw plays raw wire bytes at a SaveHandler server and returns what it
// saved, its stats and the server's error.
func saveRaw(t *testing.T, wire []byte) (*stream.Reader, *SaveStats, error) {
	t.Helper()
	var file bytes.Buffer
	h, st := SaveHandler(&file)
	srv, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	srvErr := srv.Close()
	rd, err := stream.NewReader(bytes.NewReader(file.Bytes()), int64(file.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return rd, st, srvErr
}

// TestSaveHandlerKeepsConnectionAcrossDamagedHeader flips a bit in one
// mid-stream block magic: SaveHandler must count that block damaged and
// save every block behind it, not drop the connection.
func TestSaveHandlerKeepsConnectionAcrossDamagedHeader(t *testing.T) {
	clean := capturedTrace(t, 2000)
	im, err := faultinject.OpenImage(clean, 5)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 3
	n := im.NumBlocks()
	if n < bad+3 {
		t.Fatalf("fixture has only %d blocks", n)
	}
	im.CorruptBlockMagic(bad)
	rd, st, srvErr := saveRaw(t, im.Bytes())
	if srvErr != nil {
		t.Fatalf("a damaged block is not a connection error: %v", srvErr)
	}
	if blocks, _ := st.Snapshot(); blocks != n-1 || st.Damaged != 1 {
		t.Fatalf("stats: %d blocks, %d damaged; want %d and 1", blocks, st.Damaged, n-1)
	}
	crd, err := stream.NewReader(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumBlocks() != n-1 {
		t.Fatalf("saved %d blocks, want %d", rd.NumBlocks(), n-1)
	}
	for k := 0; k < rd.NumBlocks(); k++ {
		src := k
		if k >= bad {
			src = k + 1
		}
		got, _, err := rd.Block(k)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := crd.Block(src)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("saved block %d is %+v, want stream block %d %+v", k, got, src, want)
		}
	}
}

// TestSaveStatsCountTornConnection: a sender that dies mid-block leaves
// its whole blocks in the file, and the stats must say so.
func TestSaveStatsCountTornConnection(t *testing.T) {
	clean := capturedTrace(t, 2000)
	g := stream.Meta{BufWords: 64, CPUs: 2, ClockHz: 1}.Geometry()
	const whole = 4
	rd, st, srvErr := saveRaw(t, clean[:g.FileHeaderBytes+whole*g.BlockBytes+g.BlockBytes/2])
	if srvErr == nil {
		t.Error("torn connection should surface as a server error")
	}
	if blocks, _ := st.Snapshot(); blocks != whole || rd.NumBlocks() != whole {
		t.Fatalf("stats count %d blocks, file holds %d, sender delivered %d", blocks, rd.NumBlocks(), whole)
	}
}
