package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Server serves a Handler on a net.Listener — a kernel socket from
// ListenTCP, an in-memory one from PipeNet.Listen; the loop cannot tell
// them apart — speaking the binary frame codec (frame.go). Each accepted
// connection is served by its own goroutine; Close drains.
type Server struct {
	listener net.Listener
	handler  Handler

	// streamWriteTimeout bounds each reply write — unary reply, stream
	// frame, trailer — in nanoseconds; negative disables the bound.
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

	r := newFrameReader(conn)
	w := &replyWriter{conn: conn, fw: frameWriter{w: conn}}
	for {
		req, err := r.read()
		if err != nil {
			// Hung up (a port probe that connects and leaves is the quiet
			// io.EOF), sent something that is not a frame — there is no
			// resynchronizing, so the connection goes — or a drain expired
			// the idle read.
			return
		}
		w.timeout = time.Duration(s.streamWriteTimeout.Load())
		var writeErr error
		if sh, ok := s.handler.(StreamHandler); ok && sh.Streams(req.Type) {
			writeErr = serveStream(w, sh, req)
		} else {
			resp, err := s.handler.Handle(context.Background(), req)
			if err != nil {
				resp = ErrorMessage(err)
			}
			writeErr = w.finish(resp)
		}
		if writeErr != nil || s.closed.Load() {
			return
		}
	}
}

// replyWriter writes one connection's reply frames. Every write — unary
// reply, stream frame, trailer — arms its own deadline first, so a peer
// that stopped reading fails the write instead of pinning the serving
// goroutine, and with it a draining Close.
type replyWriter struct {
	conn    net.Conn
	fw      frameWriter
	timeout time.Duration // per write; <= 0 disables the bound
	armed   bool          // a deadline from an earlier write is still set
}

func (w *replyWriter) write(m Message) error {
	if w.timeout > 0 || w.armed {
		// A bound switched off while the connection lives must also take
		// the last armed deadline with it, or a write long after it would
		// fail on a deadline nobody asked for.
		var deadline time.Time
		if w.timeout > 0 {
			deadline = time.Now().Add(w.timeout)
		}
		if err := w.conn.SetWriteDeadline(deadline); err != nil {
			return fmt.Errorf("transport: arming reply write deadline: %w", err)
		}
		w.armed = w.timeout > 0
	}
	if err := w.fw.write(m); err != nil {
		return fmt.Errorf("transport: writing reply frame: %w", err)
	}
	return nil
}

// finish writes the frame that ends an exchange. A reply too large for
// a frame was refused with the connection still in sync, so the caller
// is told why instead of watching the connection drop.
func (w *replyWriter) finish(m Message) error {
	err := w.write(m)
	if errors.Is(err, ErrFrameTooLarge) {
		refusal := ErrorMessage(err)
		refusal.Last = m.Last
		err = w.write(refusal)
	}
	return err
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
		// Expiring the read fails the frame read an idle connection is
		// parked in; a connection mid-exchange is not reading, so it
		// writes its reply (within the write deadline) and then sees
		// closed.
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}
