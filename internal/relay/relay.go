// Package relay moves trace buffers off the traced system, the role
// relayfs plays in Linux ("a mechanism for transferring data from kernel
// to user space ... has also incorporated aspects of K42's tracing
// technology"): sealed per-CPU buffers are shipped, whole, over a network
// connection using the same wire format as the on-disk trace, so the
// collector can spill them as a trace file and analyze them live while the
// system runs.
package relay

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"k42trace/internal/stream"
)

// Conn identifies one producer connection: a unique id in accept order,
// the remote address, the validated block stream, and the control
// back-channel for writing frames (mask updates) back down the same TCP
// connection.
type Conn struct {
	ID      uint64
	Remote  net.Addr
	Stream  *stream.BlockStream
	Control *ControlSender
}

// ConnHandler processes one producer connection with its identity;
// returning an error closes the connection.
type ConnHandler func(c Conn) error

// DrainGrace is how long CloseNow lets an open producer connection run on:
// a sender that has finished is read to its end, and one still sending is
// cut when the grace is up.
const DrainGrace = time.Second

// Server accepts trace streams from traced systems.
type Server struct {
	ln      net.Listener
	handler ConnHandler
	wg      sync.WaitGroup
	mu      sync.Mutex
	errs    []error
	closed  bool
	cut     time.Time // set by CloseNow: every connection's read deadline from then on
	conns   map[net.Conn]struct{}
}

// ListenConns starts a collector on addr (use "127.0.0.1:0" for an
// ephemeral port) and serves connections with h until Close. Connection ids
// start at 1, follow accept order and never repeat for the server's
// lifetime.
func ListenConns(addr string, h ConnHandler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("relay: listen %s: %w", addr, err)
	}
	return Serve(ln, h), nil
}

// Serve is ListenConns on a listener the caller has already opened — a
// daemon that must know every bound address before it builds its handler.
// The server owns ln from here on: Close and CloseNow close it.
func Serve(ln net.Listener, h ConnHandler) *Server {
	s := &Server{ln: ln, handler: h, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address, for clients to dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for id := uint64(1); ; id++ {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if !s.cut.IsZero() {
			// Accepted while CloseNow was closing the listener, after its
			// sweep of s.conns: the same deadline ends this connection if
			// its producer keeps it open.
			_ = conn.SetReadDeadline(s.cut) // fails only on a closed connection, whose reads fail anyway
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
			if err := s.handleConn(conn, id); err != nil && !errors.Is(err, io.EOF) {
				s.mu.Lock()
				s.errs = append(s.errs, err)
				s.mu.Unlock()
			}
		}()
	}
}

func (s *Server) handleConn(conn net.Conn, id uint64) error {
	bs, err := stream.NewBlockStream(conn)
	if err != nil {
		return err
	}
	return s.handler(Conn{ID: id, Remote: conn.RemoteAddr(), Stream: bs, Control: NewControlSender(conn)})
}

// Close stops accepting and waits for in-flight connections to finish,
// returning any handler errors.
func (s *Server) Close() error { return s.close(false) }

// CloseNow stops accepting, gives every open producer connection DrainGrace
// to end, then waits for the handlers to return. This is the daemon's
// SIGTERM path. A sender that has finished is read to its end: what it left
// in the socket is not lost to a signal that follows at once. A read still
// waiting when the grace is up fails with a deadline error
// (os.ErrDeadlineExceeded), which the handler returns: producers riding a
// reliable sender reconnect on their own once a collector is back, and
// waiting for them to finish naturally could take forever.
func (s *Server) CloseNow() error { return s.close(true) }

func (s *Server) close(force bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if force {
		s.cut = time.Now().Add(DrainGrace)
		for conn := range s.conns {
			_ = conn.SetReadDeadline(s.cut) // as for a late accept
		}
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.errs...)
}
