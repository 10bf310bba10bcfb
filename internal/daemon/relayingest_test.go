package daemon

import (
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/faultinject"
	"k42trace/internal/relay"
	"k42trace/internal/store"
	"k42trace/internal/stream"
)

// hangUp ends the upload on conn and waits for the server to have handled
// it: the server hangs up once its handler returns. Closing the listener
// right behind a plain conn.Close can beat the accept loop to the
// connection on a loaded host, and the upload is then never seen. A server
// that refuses the stream may hang up before CloseWrite, which then fails
// with ENOTCONN: that is the end this waits for, already reached.
func hangUp(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil && !errors.Is(err, syscall.ENOTCONN) {
		t.Fatal(err)
	}
	io.Copy(io.Discard, conn)
	conn.Close()
}

// capture is a clean two-CPU trace of 2000 events in blocks of bufWords
// words: some sixty blocks at 64.
func capture(t *testing.T, bufWords int) []byte {
	t.Helper()
	tr := core.MustNew(core.Config{
		CPUs: 2, BufWords: bufWords, NumBufs: 4,
		Mode: core.Stream, Clock: clock.NewManual(1),
	})
	tr.EnableAll()
	var clean bytes.Buffer
	wait := stream.CaptureAsync(tr, &clean)
	for i := 0; i < 2000; i++ {
		tr.CPU(i%2).Log1(event.MajorTest, 1, uint64(i))
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	return clean.Bytes()
}

// TestRelayIngestSalvagesDamagedUpload sends an upload with one bit-flipped
// block magic down the relay listener: it must be ingested, losing that
// block only — the same events the same bytes yield through Store.Ingest,
// the path POST /ingest takes.
func TestRelayIngestSalvagesDamagedUpload(t *testing.T) {
	im, err := faultinject.OpenImage(capture(t, 64), 5)
	if err != nil {
		t.Fatal(err)
	}
	im.CorruptBlockMagic(im.NumBlocks() / 2)
	damaged := im.Bytes()

	s, err := store.Open(store.Options{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	posted, err := s.Ingest("posted", bytes.NewReader(damaged), int64(len(damaged)))
	if err != nil {
		t.Fatal(err)
	}

	srv, err := relay.ListenConns("127.0.0.1:0", newProc("tracestored", io.Discard, io.Discard).relayIngest(s, "relayed"))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(damaged); err != nil {
		t.Fatal(err)
	}
	hangUp(t, conn)
	if err := srv.Close(); err != nil {
		t.Fatalf("relay ingest of a damaged upload: %v", err)
	}
	for _, ts := range s.Tenants() {
		if ts.Name == "relayed" {
			if ts.Events == 0 || ts.Events != posted.Events {
				t.Fatalf("relay upload stored %d events, the same bytes through Ingest %d", ts.Events, posted.Events)
			}
			return
		}
	}
	t.Fatal("relay upload was discarded")
}

// TestRelayIngestKeepsBlocksBeforeATear cuts the connection in the middle
// of block k: the k blocks before it arrived whole, and a redialing sender
// resumes with block k, so the store must hold exactly their events — and
// the tear must still be reported.
func TestRelayIngestKeepsBlocksBeforeATear(t *testing.T) {
	clean := capture(t, 64)
	rd, err := stream.NewReader(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	const k = 7
	if rd.NumBlocks() <= k {
		t.Fatalf("capture has %d blocks, want more than %d", rd.NumBlocks(), k)
	}
	g := rd.Meta().Geometry()
	whole := clean[:g.FileHeaderBytes+k*g.BlockBytes]
	prefix, err := stream.NewReader(bytes.NewReader(whole), int64(len(whole)))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := prefix.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(store.Options{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv, err := relay.ListenConns("127.0.0.1:0", newProc("tracestored", io.Discard, io.Discard).relayIngest(s, "relayed"))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(clean[:len(whole)+g.BlockBytes/2]); err != nil {
		t.Fatal(err)
	}
	hangUp(t, conn)
	if err := srv.Close(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("relay ingest of a torn upload reported %v, want the truncation", err)
	}
	ts := s.Tenants()
	if len(ts) != 1 || ts[0].Name != "relayed" || ts[0].Events != uint64(len(want)) {
		t.Fatalf("store holds %+v after a tear behind %d blocks of %d events", ts, k, len(want))
	}
}
