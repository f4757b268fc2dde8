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

// PoolClient is a Client over a pool of persistent stream connections
// obtained from a dial function: a kernel socket (DialTCP, DialTCPPool)
// or an in-memory pipe (PipeNet.Dial, DialInProc). The protocol is strict
// request/response, so one call owns one connection for its whole round
// trip; pooling lets up to poolSize calls proceed concurrently.
// Connections are dialed lazily, and a broken one is discarded and
// re-dialed by a later call, so a transient failure never bricks the
// client. Each connection keeps its frame reader and writer (and their
// buffers) for its lifetime.
type PoolClient struct {
	dial func(ctx context.Context) (net.Conn, error)
	// slots is the checkout queue, with one element per pool slot: a
	// ready connection, or nil — a permit to dial lazily.
	slots chan *poolConn
	// onClose, when set, ends Close: DialInProc stops its server with it.
	onClose func() error

	closed atomic.Bool // set under mu, read lock-free per call
	mu     sync.Mutex
	live   map[*poolConn]struct{}
}

// poolConn is one pooled connection with its persistent frame codec.
type poolConn struct {
	conn net.Conn
	r    *frameReader
	w    frameWriter
}

// DefaultPoolSize is the pool size used when none (<= 0) is requested.
const DefaultPoolSize = 4

// newPoolClient builds a client over up to poolSize connections from
// dial. The first is dialed eagerly so an unreachable server fails fast;
// the rest on demand, as concurrent calls need them.
func newPoolClient(dial func(ctx context.Context) (net.Conn, error), poolSize int) (*PoolClient, error) {
	if poolSize <= 0 {
		poolSize = DefaultPoolSize
	}
	c := &PoolClient{
		dial:  dial,
		slots: make(chan *poolConn, poolSize),
		live:  make(map[*poolConn]struct{}),
	}
	pc, err := c.connect(context.Background())
	if err != nil {
		return nil, err
	}
	c.slots <- pc
	for i := 1; i < poolSize; i++ {
		c.slots <- nil // lazy-dial permits
	}
	return c, nil
}

// connect dials one connection under the caller's context (a lazy dial
// cannot outlive its call's deadline) and registers it for Close.
func (c *PoolClient) connect(ctx context.Context) (*poolConn, error) {
	conn, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	pc := &poolConn{conn: conn, r: newFrameReader(conn), w: frameWriter{w: conn}}
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		_ = conn.Close()
		return nil, ErrClosed
	}
	c.live[pc] = struct{}{}
	c.mu.Unlock()
	return pc, nil
}

// discard closes a desynchronized connection, forgets it, and hands its
// pool slot back as a permit to dial a replacement.
func (c *PoolClient) discard(pc *poolConn) {
	_ = pc.conn.Close()
	c.mu.Lock()
	delete(c.live, pc)
	c.mu.Unlock()
	c.slots <- nil
}

// bindContext bounds one exchange on conn by ctx: when the context fires
// — cancelled or past its deadline — the connection's deadline expires at
// once, so a blocked read or write fails promptly. Nothing is spawned
// unless the context fires. release ends the binding; it joins a watchdog
// that has fired before clearing the deadline — a late one could
// otherwise re-expire a connection already back in the pool.
func bindContext(ctx context.Context, conn net.Conn) (release func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(fired)
		_ = conn.SetDeadline(time.Now())
	})
	return func() {
		if !stop() {
			<-fired
			_ = conn.SetDeadline(time.Time{})
		}
	}
}

// ctxCause prefers the context's error over the I/O error it provoked: a
// read cut short by cancellation reports context.Canceled, not "timeout".
func ctxCause(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

// open begins one exchange: it checks a connection out (waiting for a
// free slot honors ctx; an empty slot is dialed), binds it to ctx and
// writes the request. The caller reads the reply from pc.r, then
// calls done exactly once: done(false) returns the connection to the
// pool, done(true) discards it — a half-finished exchange cannot be
// resumed, so a later call dials afresh rather than read a stale reply.
func (c *PoolClient) open(ctx context.Context, req Message) (pc *poolConn, done func(broken bool), err error) {
	if c.closed.Load() {
		return nil, nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	select {
	case pc = <-c.slots:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	if pc == nil {
		if pc, err = c.connect(ctx); err != nil {
			c.slots <- nil // hand the permit back
			return nil, nil, err
		}
	}
	release := bindContext(ctx, pc.conn)
	done = func(broken bool) {
		release()
		if broken {
			c.discard(pc)
		} else {
			c.slots <- pc
		}
	}
	if err := pc.w.write(req); err != nil {
		// A request that fits no frame was refused before a byte left:
		// the connection is still in sync.
		done(!errors.Is(err, ErrFrameTooLarge))
		return nil, nil, fmt.Errorf("transport: sending request: %w", ctxCause(ctx, err))
	}
	return pc, done, nil
}

// Call implements Client: one round trip on a pooled connection, bounded
// by ctx (bindContext). An application error leaves the
// connection in sync and reusable; a failed or aborted round trip
// discards it. After Close, calls return ErrClosed.
func (c *PoolClient) Call(ctx context.Context, req Message) (Message, error) {
	pc, done, err := c.open(ctx, req)
	if err != nil {
		return Message{}, err
	}
	resp, err := pc.r.read()
	if err != nil {
		done(true)
		return Message{}, fmt.Errorf("transport: reading reply: %w", ctxCause(ctx, err))
	}
	done(false)
	if err := resp.AsError(); err != nil {
		return Message{}, err
	}
	return resp, nil
}

// CallStream implements StreamCaller: it opens an exchange like Call and
// returns the reply stream. The connection stays checked out until the
// stream ends — trailer read (returned to the pool) or closed early or
// broken (discarded) — and ctx bounds the whole exchange, so cancellation
// fails the next Next promptly. Only send message types the server
// streams: a unary reply has no terminal frame to end the stream on.
func (c *PoolClient) CallStream(ctx context.Context, req Message) (Stream, error) {
	pc, done, err := c.open(ctx, req)
	if err != nil {
		return nil, err
	}
	return &clientStream{ctx: ctx, r: pc.r, finish: done}, nil
}

// Close implements Client: it closes every connection, checked-out ones
// included (their round trips fail promptly). Close is idempotent.
func (c *PoolClient) Close() error {
	c.mu.Lock()
	if c.closed.Swap(true) {
		c.mu.Unlock()
		return nil
	}
	var err error
	for pc := range c.live {
		err = errors.Join(err, pc.conn.Close())
	}
	c.live = nil
	c.mu.Unlock()
	if c.onClose != nil {
		err = errors.Join(err, c.onClose())
	}
	return err
}
