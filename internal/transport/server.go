package transport

import (
	"context"
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Server serves a Handler on a net.Listener — a kernel socket from
// ListenTCP, an in-memory one from PipeNet.Listen; the loop cannot tell
// them apart — with a newline-free JSON stream codec (one Message per
// json.Decoder token). Each accepted connection is served by its own
// goroutine; Close drains.
type Server struct {
	listener net.Listener
	handler  Handler

	// streamWriteTimeout bounds each streaming frame write (nanoseconds);
	// negative disables the bound.
	streamWriteTimeout atomic.Int64

	closed atomic.Bool // set under mu; serve loops read it between exchanges
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// serve starts accepting connections from ln and serving h on each.
func serve(ln net.Listener, h Handler) *Server {
	s := &Server{
		listener: ln,
		handler:  h,
		conns:    make(map[net.Conn]struct{}),
	}
	s.streamWriteTimeout.Store(int64(DefaultStreamWriteTimeout))
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// SetStreamWriteTimeout overrides the per-frame write deadline streaming
// replies are bounded by: zero restores DefaultStreamWriteTimeout, a
// negative duration disables the bound. Safe to call while serving.
func (s *Server) SetStreamWriteTimeout(d time.Duration) {
	if d == 0 {
		d = DefaultStreamWriteTimeout
	}
	s.streamWriteTimeout.Store(int64(d))
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()

	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	for {
		var req Message
		if err := dec.Decode(&req); err != nil {
			return // hung up, sent garbage, or a drain expired the idle read
		}
		var writeErr error
		if sh, ok := s.handler.(StreamHandler); ok && sh.Streams(req.Type) {
			writeErr = serveStream(conn, enc, sh, req, time.Duration(s.streamWriteTimeout.Load()))
		} else {
			resp, err := s.handler.Handle(context.Background(), req)
			if err != nil {
				resp = ErrorMessage(err)
			}
			writeErr = enc.Encode(resp)
		}
		if writeErr != nil || s.closed.Load() {
			return
		}
	}
}

// Close stops the server and drains: connections mid-exchange write their
// reply first, idle connections close immediately, and Close waits for
// every serving goroutine to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed.Swap(true) {
		s.mu.Unlock()
		return nil
	}
	err := s.listener.Close()
	for conn := range s.conns {
		// Expiring the read fails the Decode an idle connection is parked
		// in; a connection mid-exchange is not reading, so it writes its
		// reply and then sees closed.
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}
