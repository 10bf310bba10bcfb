package fed

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"k42trace/internal/relay"
	"k42trace/internal/stream"
)

var uplinkMeta = stream.Meta{BufWords: 64, CPUs: 2, ClockHz: 1}

func uplinkBlock(seq uint64) (stream.BlockHeader, []uint64) {
	words := make([]uint64, 8)
	return stream.BlockHeader{NWords: len(words), Seq: seq, Committed: uint64(len(words))}, words
}

// gate is an uplink transport that fails every write while down is set.
type gate struct {
	w    io.Writer
	down *atomic.Bool
}

func (g gate) Write(p []byte) (int, error) {
	if g.down.Load() {
		return 0, errors.New("aggregator down")
	}
	return g.w.Write(p)
}

// TestUplinkDropsOneBlockAfterMaxAttempts is the uplink's give-up policy:
// a block the link cannot deliver within MaxAttempts is counted in
// DroppedGaveUp — that block only — and the next block is delivered.
func TestUplinkDropsOneBlockAfterMaxAttempts(t *testing.T) {
	seqs := make(chan uint64, 4) // every block the test feeds
	srv, err := relay.ListenConns("127.0.0.1:0", func(c relay.Conn) error {
		_, err := c.Stream.CopyTo(stream.SinkFunc(func(h stream.BlockHeader, _ []uint64) error {
			seqs <- h.Seq
			return nil
		}))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.CloseNow()
	var down atomic.Bool
	u := NewUplink(srv.Addr(), UplinkOptions{ReliableOptions: relay.ReliableOptions{
		InitialBackoff: time.Millisecond,
		MaxAttempts:    2,
		Wrap:           func(w io.Writer) io.Writer { return gate{w, &down} },
		// The outage lasts exactly one block's attempt budget.
		OnRetry: func(_ error, attempt int) {
			if attempt == 2 {
				down.Store(false)
			}
		},
	}})
	u.Start(uplinkMeta)
	u.Feed(uplinkBlock(0))
	if got := <-seqs; got != 0 {
		t.Fatalf("aggregator received block %d first, want 0", got)
	}
	down.Store(true)
	u.Feed(uplinkBlock(1))
	u.Feed(uplinkBlock(2))
	u.Close()
	if got := <-seqs; got != 2 {
		t.Fatalf("aggregator received block %d after the outage, want 2", got)
	}
	st := u.Stats()
	if st.Blocks != 2 || st.DroppedGaveUp != 1 || st.DroppedFull != 0 {
		t.Fatalf("stats %+v: want 2 delivered, 1 gave up", st)
	}
}

// slow is an uplink transport that takes its time over every write, so a
// short queue behind it stays full; it closes busy once blocks are flowing.
type slow struct {
	w      io.Writer
	writes int
	busy   chan struct{}
}

func (s *slow) Write(p []byte) (int, error) {
	if s.writes++; s.writes == 3 { // the stream header, then two blocks
		close(s.busy)
	}
	time.Sleep(100 * time.Microsecond)
	return s.w.Write(p)
}

// TestUplinkFeedAgainstClose hammers Feed from several goroutines, most of
// them waiting on a full queue, while Close runs: no send may land on the
// closed queue, and every block fed is delivered or counted dropped.
func TestUplinkFeedAgainstClose(t *testing.T) {
	srv, err := relay.ListenConns("127.0.0.1:0", func(c relay.Conn) error {
		_, err := c.Stream.CopyTo(stream.SinkFunc(func(stream.BlockHeader, []uint64) error { return nil }))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.CloseNow()
	const feeders, perFeeder = 4, 50
	for round := 0; round < 30; round++ {
		busy := make(chan struct{})
		u := NewUplink(srv.Addr(), UplinkOptions{QueueBlocks: 1, ReliableOptions: relay.ReliableOptions{
			Wrap: func(w io.Writer) io.Writer { return &slow{w: w, busy: busy} },
		}})
		u.Start(uplinkMeta)
		var wg sync.WaitGroup
		for f := 0; f < feeders; f++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perFeeder; i++ {
					u.Feed(uplinkBlock(uint64(i)))
				}
			}()
		}
		<-busy
		u.Close()
		wg.Wait()
		st := u.Stats()
		if got := st.Blocks + st.DroppedFull + st.DroppedGaveUp; got != feeders*perFeeder {
			t.Fatalf("round %d: %d blocks fed, %d accounted for (%+v)", round, feeders*perFeeder, got, st)
		}
	}
}
