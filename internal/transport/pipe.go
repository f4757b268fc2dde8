package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// PipeNet is an in-memory network: handlers listen on names, clients dial
// those names, and every connection is a net.Pipe served by the same
// Server loop and driven by the same PoolClient as a TCP socket. Multi-
// authority tests and the federation harness thereby run the production
// transport — codec, framing, breakage, deadlines, drain — without
// binding ports: no port-conflict flakes, and a -race suite that spins
// fifty authorities in milliseconds. PipeNet's own part is the name
// registry and a counter of every byte that crosses any of its pipes —
// the measurement the gossip-vs-all-pairs comparison is built on.
type PipeNet struct {
	mu        sync.Mutex
	listeners map[string]*pipeListener
	closed    bool

	bytes atomic.Uint64
}

// NewPipeNet creates an empty in-memory network.
func NewPipeNet() *PipeNet {
	return &PipeNet{listeners: make(map[string]*pipeListener)}
}

// Listen serves h under addr (any non-empty name) until the returned
// server or the network is closed, as ListenTCP serves a port. Registering
// a name twice is an error — it would silently shadow a live authority.
func (n *PipeNet) Listen(addr string, h Handler) (*Server, error) {
	if addr == "" {
		return nil, errors.New("transport: pipe listen needs a non-empty address")
	}
	if h == nil {
		return nil, errors.New("transport: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.listeners[addr]; dup {
		return nil, fmt.Errorf("transport: pipe address %q already listening", addr)
	}
	ln := &pipeListener{
		addr:  addr,
		bytes: &n.bytes,
		conns: make(chan net.Conn),
		done:  make(chan struct{}),
	}
	ln.srv = serve(ln, h)
	n.listeners[addr] = ln
	return ln.srv, nil
}

// BytesOnWire reports the bytes carried by every connection of the network
// so far, both directions, each counted as its reader takes it.
func (n *PipeNet) BytesOnWire() uint64 { return n.bytes.Load() }

// Dial connects to a listening name: the pooled client over in-memory
// pipes (DefaultPoolSize of them, dialed lazily, so a unary call proceeds
// beside an open stream).
func (n *PipeNet) Dial(addr string) (*PoolClient, error) {
	return newPoolClient(func(ctx context.Context) (net.Conn, error) {
		n.mu.Lock()
		ln, ok := n.listeners[addr]
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		if !ok {
			return nil, fmt.Errorf("transport: pipe dial %q: no such listener", addr)
		}
		return ln.dial(ctx)
	}, 0)
}

// Close tears the network down: further Listen and Dial calls return
// ErrClosed, and every server drains — an exchange mid-handling writes
// its reply first, idle pipes close at once — before Close returns.
func (n *PipeNet) Close() error {
	n.mu.Lock()
	n.closed = true // freezes the registry: Listen refuses from here on
	n.mu.Unlock()
	// Drain outside the lock: a handler finishing its exchange may itself
	// be dialing a peer on this network.
	for _, ln := range n.listeners {
		_ = ln.srv.Close()
	}
	return nil
}

// DialInProc connects a client to a co-located handler over a private
// one-listener PipeNet, so an in-process party is reached through the
// same codec, framing and serve loop as a remote one (the handler sees
// context.Background(), as it does over TCP). Closing the client stops
// the private server. A nil handler is a programming error and panics.
func DialInProc(h Handler) *PoolClient {
	c, _ := dialInProc(h)
	return c
}

// inProcAddr is the one name a DialInProc network listens on.
const inProcAddr = "inproc"

// dialInProc is DialInProc, also returning the private network (the
// conformance suite reaches the server's controls through it).
func dialInProc(h Handler) (*PoolClient, *PipeNet) {
	n := NewPipeNet()
	if _, err := n.Listen(inProcAddr, h); err != nil {
		panic("transport: DialInProc: " + err.Error())
	}
	c, _ := n.Dial(inProcAddr) // cannot fail: the listener was just registered
	c.onClose = n.Close
	return c, n
}

// pipeListener is a net.Listener whose connections are net.Pipe pairs:
// dial makes a pair, hands one end to Accept and returns the other. Both
// ends count what they read into the owning network's total.
type pipeListener struct {
	addr  string
	srv   *Server
	bytes *atomic.Uint64
	conns chan net.Conn
	done  chan struct{}
}

// dial opens one pipe to the listener's server.
func (l *pipeListener) dial(ctx context.Context) (net.Conn, error) {
	clientEnd, serverEnd := net.Pipe()
	select {
	case l.conns <- countedConn{Conn: serverEnd, bytes: l.bytes}:
		return countedConn{Conn: clientEnd, bytes: l.bytes}, nil
	case <-l.done:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Accept implements net.Listener.
func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.conns:
		return conn, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener; the owning Server calls it exactly once.
func (l *pipeListener) Close() error {
	close(l.done)
	return nil
}

// Addr implements net.Listener; the listener is its own net.Addr.
func (l *pipeListener) Addr() net.Addr { return l }

func (l *pipeListener) Network() string { return "pipe" }
func (l *pipeListener) String() string  { return l.addr }

// countedConn counts every byte it reads into the owning PipeNet's
// total. A net.Pipe has no buffer, so reads and writes sum to the same
// figure; counting reads makes the total current the moment data is seen,
// where a write-side count lags its reader by a scheduling step.
type countedConn struct {
	net.Conn
	bytes *atomic.Uint64
}

// Read implements net.Conn, adding the bytes taken to the wire total.
func (c countedConn) Read(p []byte) (int, error) {
	m, err := c.Conn.Read(p)
	c.bytes.Add(uint64(m))
	return m, err
}
