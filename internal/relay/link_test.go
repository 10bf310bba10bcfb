package relay

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"k42trace/internal/stream"
)

var linkMeta = stream.Meta{BufWords: 64, CPUs: 2, ClockHz: 1}

// flakyBlock is one block a flakyCollector received.
type flakyBlock struct {
	conn int // accept order, from 0
	seq  uint64
}

// flakyCollector accepts connections, replays a pending mask down each new
// one (mask = accept order + 1), and resets each of its first tears
// connections after tearAfter blocks. Every block received is reported on
// got — for the block that triggers a tear, after the connection is gone,
// so a sender that waits for the report writes its next block to a
// connection that is already reset.
type flakyCollector struct {
	ln               net.Listener
	tears, tearAfter int
	got              chan flakyBlock
	wg               sync.WaitGroup
}

func newFlakyCollector(t *testing.T, tears, tearAfter int) *flakyCollector {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Sized to every block a test sends, so a report never blocks serve.
	fc := &flakyCollector{ln: ln, tears: tears, tearAfter: tearAfter, got: make(chan flakyBlock, 64)}
	fc.wg.Add(1)
	go func() {
		defer fc.wg.Done()
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fc.wg.Add(1)
			go fc.serve(conn.(*net.TCPConn), n)
		}
	}()
	t.Cleanup(func() { ln.Close(); fc.wg.Wait() })
	return fc
}

func (fc *flakyCollector) serve(conn *net.TCPConn, n int) {
	defer fc.wg.Done()
	defer conn.Close()
	NewControlSender(conn).SetMask(uint64(n + 1))
	bs, err := stream.NewBlockStream(conn)
	if err != nil {
		return
	}
	for k := 1; ; k++ {
		h, _, err := bs.Next(nil)
		if err != nil {
			return
		}
		if n < fc.tears && k == fc.tearAfter {
			conn.SetLinger(0) // close as a reset: the sender's next write fails
			conn.Close()
			fc.got <- flakyBlock{n, h.Seq}
			return
		}
		fc.got <- flakyBlock{n, h.Seq}
	}
}

func (fc *flakyCollector) expect(t *testing.T, want flakyBlock) {
	t.Helper()
	select {
	case got := <-fc.got:
		if got != want {
			t.Fatalf("collector received %+v, want %+v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("collector never received %+v", want)
	}
}

// flushProbe is a Wrap result with a Flush method: each Flush records
// whether the connection under it was still open.
type flushProbe struct {
	conn    net.Conn
	flushed *[]bool
}

func (p flushProbe) Write(b []byte) (int, error) { return p.conn.Write(b) }

func (p flushProbe) Flush() error {
	*p.flushed = append(*p.flushed, p.conn.SetWriteDeadline(time.Time{}) == nil)
	return nil
}

// TestLinkRedialsAgainstFlakyCollector drives seven blocks through a
// collector that resets its first two connections after two blocks each.
func TestLinkRedialsAgainstFlakyCollector(t *testing.T) {
	fc := newFlakyCollector(t, 2, 2)
	resolves := 0
	ctrl := make(chan ControlFrame, 8) // one frame per connection; never blocks the reader
	var flushed []bool
	l := NewLink("127.0.0.1:1", linkMeta, ReliableOptions{
		InitialBackoff: time.Millisecond,
		Resolve:        func() (string, error) { resolves++; return fc.ln.Addr().String(), nil },
		OnControl:      func(f ControlFrame) { ctrl <- f },
		Wrap: func(w io.Writer) io.Writer {
			return flushProbe{conn: w.(net.Conn), flushed: &flushed}
		},
	})
	words := make([]uint64, 8)
	for seq := uint64(0); seq < 7; seq++ {
		if err := l.WriteBlock(stream.BlockHeader{NWords: len(words), Seq: seq, Committed: 8}, words); err != nil {
			t.Fatalf("block %d: %v", seq, err)
		}
		// Blocks 2 and 4 are written to a reset connection: they must be
		// the first block of the next one.
		conn := min(int(seq)/2, 2)
		fc.expect(t, flakyBlock{conn, seq})
		if st := l.Stats(); int(st.Dials) != conn+1 || resolves != conn+1 {
			t.Fatalf("after block %d: %d dials, %d resolves, want %d of each", seq, st.Dials, resolves, conn+1)
		}
		if seq == 0 || seq == 2 || seq == 4 {
			// A control reader runs on every connection, redialed ones
			// included: the pending mask the collector replays arrives.
			select {
			case f := <-ctrl:
				if f.Type != CtrlSetMask || f.Mask != uint64(conn+1) {
					t.Fatalf("connection %d delivered control frame %+v", conn, f)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("no control frame on connection %d", conn)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Dials != 3 || st.Retries != 2 || st.ControlFrames != 3 {
		t.Fatalf("stats %+v: want 3 dials, 2 retries, 3 control frames", st)
	}
	if len(flushed) != 3 || !flushed[0] || !flushed[1] || !flushed[2] {
		t.Fatalf("flushes (connection still open?) %v: want one per connection, each before its close", flushed)
	}
}

// TestLinkOneAttemptFailsOnFirstError: with MaxAttempts 1 the first failed
// write is the caller's error, with no redial behind it; the link is then
// disconnected and the next call dials afresh.
func TestLinkOneAttemptFailsOnFirstError(t *testing.T) {
	fc := newFlakyCollector(t, 1, 1)
	l := NewLink(fc.ln.Addr().String(), linkMeta, ReliableOptions{MaxAttempts: 1})
	defer l.Close()
	words := make([]uint64, 8)
	h := stream.BlockHeader{NWords: len(words), Committed: 8}
	if err := l.WriteBlock(h, words); err != nil {
		t.Fatal(err)
	}
	fc.expect(t, flakyBlock{0, 0})
	h.Seq = 1
	if err := l.WriteBlock(h, words); err == nil {
		t.Fatal("write to a reset connection succeeded")
	}
	if st := l.Stats(); st.Dials != 1 || st.Retries != 1 {
		t.Fatalf("stats %+v: want 1 dial, 1 failed write, no second attempt", st)
	}
	if err := l.WriteBlock(h, words); err != nil {
		t.Fatalf("next call did not start over: %v", err)
	}
	fc.expect(t, flakyBlock{1, 1})
}
