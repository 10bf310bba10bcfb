// Package relay moves trace buffers off the traced system, the role
// relayfs plays in Linux ("a mechanism for transferring data from kernel
// to user space ... has also incorporated aspects of K42's tracing
// technology"): sealed per-CPU buffers are shipped, whole, over a network
// connection using the same wire format as the on-disk trace, so the
// collector can save them directly or analyze them live while the system
// runs.
package relay

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"k42trace/internal/stream"
)

// Send streams a tracer's sealed buffers to addr until the tracer is
// stopped. It is the producer side: dial, then stream.Capture onto the
// connection.
func Send(tr stream.Source, addr string) (stream.CaptureStats, error) {
	return SendThrough(tr, addr, nil)
}

// SendThrough is Send with a transport-transform hook: wrap receives the
// dialed connection and returns the writer the capture drains into. It is
// the seam where fault injection (or compression, throttling, ...) plugs
// into the relay path without the tracer or the collector knowing. A nil
// wrap sends directly. If the wrapped writer has a Flush method it is
// called after the capture finishes, before the connection closes.
func SendThrough(tr stream.Source, addr string, wrap func(io.Writer) io.Writer) (stream.CaptureStats, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return stream.CaptureStats{}, fmt.Errorf("relay: dial %s: %w", addr, err)
	}
	defer conn.Close()
	w := io.Writer(conn)
	if wrap != nil {
		w = wrap(conn)
	}
	st, err := stream.Capture(tr, w)
	if f, ok := w.(interface{ Flush() error }); ok {
		if ferr := f.Flush(); err == nil {
			err = ferr
		}
	}
	return st, err
}

// Handler processes one incoming trace stream. It is called once per
// accepted connection with the already-validated block stream; returning
// an error closes the connection.
type Handler func(remote net.Addr, bs *stream.BlockStream) error

// Server accepts trace streams from traced systems.
type Server struct {
	ln      net.Listener
	handler func(conn net.Conn, bs *stream.BlockStream) error
	wg      sync.WaitGroup
	mu      sync.Mutex
	errs    []error
	closed  bool
	forced  bool // CloseNow has swept conns; later accepts are closed at once
	conns   map[net.Conn]struct{}
}

// Listen starts a collector on addr (use "127.0.0.1:0" for an ephemeral
// port) and serves connections with h until Close.
func Listen(addr string, h Handler) (*Server, error) {
	return listen(addr, func(conn net.Conn, bs *stream.BlockStream) error {
		return h(conn.RemoteAddr(), bs)
	})
}

// listen is the shared server constructor: handlers receive the raw
// connection so per-connection facilities (the control back-channel) can
// be attached without the public Handler signature knowing about them.
func listen(addr string, h func(conn net.Conn, bs *stream.BlockStream) error) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("relay: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: h, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address, for clients to dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.forced {
			// Accepted while CloseNow was closing the listener: its sweep
			// of s.conns is over, and nothing else would end this
			// connection while its producer keeps it open.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			if err := s.handleConn(conn); err != nil && !errors.Is(err, io.EOF) {
				s.mu.Lock()
				s.errs = append(s.errs, err)
				s.mu.Unlock()
			}
		}()
	}
}

func (s *Server) handleConn(conn net.Conn) error {
	bs, err := stream.NewBlockStream(conn)
	if err != nil {
		return err
	}
	return s.handler(conn, bs)
}

// Close stops accepting and waits for in-flight connections to finish,
// returning any handler errors.
func (s *Server) Close() error { return s.close(false) }

// CloseNow stops accepting and force-closes every open producer
// connection, then waits for the handlers to return. This is the daemon's
// SIGTERM path: producers riding a reliable sender reconnect on their own
// once a collector is back; waiting for them to finish naturally could
// take forever.
func (s *Server) CloseNow() error { return s.close(true) }

func (s *Server) close(force bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if force {
		s.forced = true
		for conn := range s.conns {
			conn.Close()
		}
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.errs...)
}

// Conn identifies one producer connection for handlers that track
// per-producer state: a unique id in accept order, the remote address,
// the validated block stream, and the control back-channel for writing
// frames (mask updates) back down the same TCP connection.
type Conn struct {
	ID      uint64
	Remote  net.Addr
	Stream  *stream.BlockStream
	Control *ControlSender
}

// ConnHandler processes one producer connection with its identity;
// returning an error closes the connection.
type ConnHandler func(c Conn) error

// ListenConns is Listen for handlers that need per-producer identity.
// Connection ids start at 1 and never repeat for the server's lifetime.
func ListenConns(addr string, h ConnHandler) (*Server, error) {
	var mu sync.Mutex
	var next uint64
	return listen(addr, func(conn net.Conn, bs *stream.BlockStream) error {
		mu.Lock()
		next++
		id := next
		mu.Unlock()
		return h(Conn{ID: id, Remote: conn.RemoteAddr(), Stream: bs, Control: NewControlSender(conn)})
	})
}

// SaveHandler returns a Handler that re-serializes every incoming stream
// into w in trace-file format, so the collected bytes are directly
// openable with stream.NewReader. Multiple connections (sequential or
// concurrent) append into the same file: the first writes the header and
// later ones must carry identical metadata; block writes are serialized.
// The returned stats pointer is updated as blocks arrive (read it after
// Server.Close).
func SaveHandler(w io.Writer) (Handler, *SaveStats) {
	st := &SaveStats{}
	var (
		mu sync.Mutex
		wr *stream.Writer
	)
	h := func(remote net.Addr, bs *stream.BlockStream) error {
		mu.Lock()
		if wr == nil {
			var err error
			wr, err = stream.NewWriter(w, bs.Meta())
			if err != nil {
				mu.Unlock()
				return err
			}
		} else if wr.Meta() != bs.Meta() {
			mu.Unlock()
			return fmt.Errorf("relay: stream from %v has metadata %+v, file has %+v",
				remote, bs.Meta(), wr.Meta())
		}
		mu.Unlock()
		blocks, anoms := 0, 0
		for {
			bh, words, err := bs.Next()
			if err == io.EOF {
				st.mu.Lock()
				st.Blocks += blocks
				st.Anomalies += anoms
				st.mu.Unlock()
				return nil
			}
			if err != nil {
				return err
			}
			if bh.Anomalous() {
				anoms++
			}
			mu.Lock()
			werr := wr.WriteBlock(bh, words)
			mu.Unlock()
			if werr != nil {
				return werr
			}
			blocks++
		}
	}
	return h, st
}

// SaveStats reports what a SaveHandler collected.
type SaveStats struct {
	mu        sync.Mutex
	Blocks    int
	Anomalies int
}

// Snapshot returns the current counts.
func (s *SaveStats) Snapshot() (blocks, anomalies int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Blocks, s.Anomalies
}

// LiveBlock is one buffer delivered to a live consumer.
type LiveBlock struct {
	Header stream.BlockHeader
	Words  []uint64
}

// LiveHandler returns a Handler that decodes incoming buffers and sends
// them on the returned channel, enabling live analysis while the traced
// system runs ("this event log may be examined while the system is
// running ... or streamed over the network"). The channel closes when the
// sender finishes.
func LiveHandler(buffered int) (Handler, <-chan LiveBlock) {
	ch := make(chan LiveBlock, buffered)
	h := func(remote net.Addr, bs *stream.BlockStream) error {
		defer close(ch)
		for {
			bh, words, err := bs.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			ch <- LiveBlock{Header: bh, Words: words}
		}
	}
	return h, ch
}
