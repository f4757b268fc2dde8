package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The conformance suite: there is one client and one server, reached
// three ways — a kernel socket (ListenTCP + DialTCP), a named in-memory
// pipe (PipeNet) and an anonymous one (DialInProc). Every row below runs
// over all three, so "parties cannot tell the transports apart" is a
// tested property rather than three hand-kept copies of each test.

// rig is one served handler: how to reach it — through the client, or as
// a raw peer holding the bare connection — and the server-side controls.
type rig struct {
	dial             func() (*PoolClient, error)
	rawDial          func() (net.Conn, error)
	closeServer      func() error
	setStreamTimeout func(time.Duration)
}

// pipeRig is the rig of one PipeNet listener.
func pipeRig(n *PipeNet, addr string) *rig {
	return &rig{
		dial:             func() (*PoolClient, error) { return n.Dial(addr) },
		rawDial:          func() (net.Conn, error) { return n.listeners[addr].dial(context.Background()) },
		closeServer:      n.Close,
		setStreamTimeout: func(d time.Duration) { n.listeners[addr].srv.setStreamWriteTimeout(d) },
	}
}

// client dials the rig, failing the test on error and closing the client
// at cleanup.
func (r *rig) client(t *testing.T) *PoolClient {
	t.Helper()
	c, err := r.dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// transports lists the three ways to put a handler behind a client. Each
// start serves h and registers the teardown with t.Cleanup, so a row's
// own cleanups (registered later, run earlier) can release gated handlers
// before the server drains.
var transports = []struct {
	name  string
	start func(t *testing.T, h Handler) *rig
}{
	{"tcp", func(t *testing.T, h Handler) *rig {
		srv, err := ListenTCP("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return &rig{
			dial:             func() (*PoolClient, error) { return DialTCP(srv.Addr(), time.Second) },
			rawDial:          func() (net.Conn, error) { return net.Dial("tcp", srv.Addr()) },
			closeServer:      srv.Close,
			setStreamTimeout: srv.setStreamWriteTimeout,
		}
	}},
	{"pipenet", func(t *testing.T, h Handler) *rig {
		n := NewPipeNet()
		t.Cleanup(func() { _ = n.Close() })
		if _, err := n.Listen("auth", h); err != nil {
			t.Fatal(err)
		}
		return pipeRig(n, "auth")
	}},
	{"inproc", func(t *testing.T, h Handler) *rig {
		// The controls are those of the first client's private server;
		// every further client is a DialInProc of its own, server and all.
		c, n := dialInProc(h)
		t.Cleanup(func() { _ = c.Close() })
		var first atomic.Pointer[PoolClient]
		first.Store(c)
		r := pipeRig(n, inProcAddr)
		r.dial = func() (*PoolClient, error) {
			if c := first.Swap(nil); c != nil {
				return c, nil
			}
			return DialInProc(h), nil
		}
		return r
	}},
}

// gatedHandler blocks every request until open is called, announcing
// each arrival on started.
type gatedHandler struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGatedHandler() *gatedHandler {
	// started is buffered so a handler that nobody is watching for never
	// blocks on the announcement.
	return &gatedHandler{started: make(chan struct{}, 16), release: make(chan struct{})}
}

// open releases every held and future request; safe to call twice.
func (h *gatedHandler) open() { h.once.Do(func() { close(h.release) }) }

func (h *gatedHandler) Handle(_ context.Context, req Message) (Message, error) {
	h.started <- struct{}{}
	<-h.release
	return req, nil
}

// liveConns reports how many connections the client currently holds open.
func liveConns(c *PoolClient) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.live)
}

func mustPing(t *testing.T, n int) Message {
	t.Helper()
	req, err := NewMessage("ping", ping{N: n})
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// expectEcho issues one unary call and checks the echoed payload.
func expectEcho(t *testing.T, c Client, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := c.Call(ctx, mustPing(t, n))
	if err != nil {
		t.Fatalf("echo %d: %v", n, err)
	}
	var p ping
	if err := resp.Decode(&p); err != nil || resp.Type != "echo" || p.N != n {
		t.Fatalf("echo %d: got %q %+v err=%v", n, resp.Type, p, err)
	}
}

// expectServerCloses closes the rig's server and fails the test if the
// drain is still waiting five seconds later: the stalled-reader rows end
// here, because a write nobody bounds pins Close along with its goroutine.
func expectServerCloses(t *testing.T, r *rig) {
	t.Helper()
	closed := make(chan error, 1)
	go func() { closed <- r.closeServer() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("server Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server Close wedged behind a reply nobody reads")
	}
}

var conformanceRows = []struct {
	name string
	run  func(t *testing.T, start func(*testing.T, Handler) *rig)
}{
	{"UnaryRoundTrip", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		c := start(t, echoHandler).client(t)
		for i := 0; i < 5; i++ {
			expectEcho(t, c, i)
		}
	}},

	{"HandlerErrorBecomesAppError", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		c := start(t, echoHandler).client(t)
		if _, err := c.Call(context.Background(), Message{Type: "boom"}); err == nil || err.Error() != "kaboom" {
			t.Fatalf("err = %v, want kaboom", err)
		}
		// An application error is a reply, not a broken connection: the
		// connection survives it.
		if n := liveConns(c); n != 1 {
			t.Fatalf("%d live connections after an application error, want the 1 it arrived on", n)
		}
		expectEcho(t, c, 1)
	}},

	{"ContextCancelledBeforeCall", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		c := start(t, echoHandler).client(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := c.Call(ctx, mustPing(t, 1)); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		expectEcho(t, c, 2)
	}},

	{"ContextDeadlineBoundsTheCall", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		h := newGatedHandler()
		c := start(t, h).client(t)
		t.Cleanup(h.open)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		began := time.Now()
		if _, err := c.Call(ctx, mustPing(t, 1)); err == nil {
			t.Fatal("stalled call must fail at the deadline")
		}
		if waited := time.Since(began); waited > 2*time.Second {
			t.Fatalf("deadline took %s to take effect", waited)
		}
	}},

	{"CancelMidRequestDiscardsAndRedials", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		// The first request hangs, so the caller cancels with the request
		// on the wire and no reply in sight; later requests echo.
		var calls atomic.Int32
		release := make(chan struct{})
		h := HandlerFunc(func(ctx context.Context, req Message) (Message, error) {
			if calls.Add(1) == 1 {
				<-release
			}
			return echoHandler(ctx, req)
		})
		c := start(t, h).client(t)
		t.Cleanup(func() { close(release) })

		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		began := time.Now()
		_, err := c.Call(ctx, mustPing(t, 1))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled mid-request call: err = %v, want context.Canceled", err)
		}
		if waited := time.Since(began); waited > 2*time.Second {
			t.Fatalf("cancellation took %s to take effect", waited)
		}
		// The half-finished exchange cannot be resumed: its connection is
		// gone, and the next call dials a replacement instead of reading
		// the stale reply.
		if n := liveConns(c); n != 0 {
			t.Fatalf("%d live connections after an aborted exchange, want 0", n)
		}
		expectEcho(t, c, 2)
	}},

	{"ConcurrentClients", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		var served atomic.Int32
		r := start(t, HandlerFunc(func(ctx context.Context, req Message) (Message, error) {
			served.Add(1)
			return echoHandler(ctx, req)
		}))
		const clients, calls = 8, 20
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := r.dial()
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				for j := 0; j < calls; j++ {
					req, err := NewMessage("ping", ping{N: i*100 + j})
					var resp Message
					if err == nil {
						resp, err = c.Call(context.Background(), req)
					}
					var p ping
					if err == nil {
						err = resp.Decode(&p)
					}
					if err != nil || p.N != i*100+j {
						t.Errorf("client %d call %d: %+v err=%v", i, j, p, err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		if got := served.Load(); got != clients*calls {
			t.Errorf("served %d, want %d", got, clients*calls)
		}
	}},

	{"StreamHappyPath", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		h := newCountStreamer()
		h.gate = make(chan struct{})
		c := start(t, h).client(t)
		st, err := c.CallStream(context.Background(), countRequest(t, 3, 0, -1))
		if err != nil {
			t.Fatal(err)
		}
		if cap(c.slots) > 1 {
			// Stream open, zero frames released: with a pool, a unary
			// call proceeds beside it instead of queueing behind it.
			expectEcho(t, c, 1)
		}
		opened := liveConns(c)
		go func() {
			for i := 0; i < 3; i++ {
				h.gate <- struct{}{}
			}
		}()
		drainStream(t, st, 3)
		if _, err := st.Next(); !errors.Is(err, ErrStreamDone) {
			t.Fatalf("post-trailer Next = %v, want ErrStreamDone", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close after trailer: %v", err)
		}
		// The stream's connection went back to the pool in sync, not to
		// the bin — on the single-connection TCP client it is the only
		// one there is, so the next call proves it usable.
		if n := liveConns(c); n != opened {
			t.Fatalf("live connections %d -> %d across a clean stream", opened, n)
		}
		expectEcho(t, c, 2)
	}},

	{"StreamServerErrorBeforeFrames", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		c := start(t, newCountStreamer()).client(t)
		st, err := c.CallStream(context.Background(), countRequest(t, 5, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Next(); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
			t.Fatalf("Next = %v, want the handler's error", err)
		}
		if _, err := st.Next(); !errors.Is(err, ErrStreamDone) {
			t.Fatalf("Next after terminal error = %v, want ErrStreamDone", err)
		}
		// A terminal error frame ends the exchange cleanly.
		expectEcho(t, c, 1)
	}},

	{"StreamServerErrorMidStream", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		c := start(t, newCountStreamer()).client(t)
		st, err := c.CallStream(context.Background(), countRequest(t, 5, 0, 2))
		if err != nil {
			t.Fatal(err)
		}
		// Frames already delivered stand; the failure is the terminal frame.
		for i := 0; i < 2; i++ {
			if m, err := st.Next(); err != nil || m.Type != "frame" {
				t.Fatalf("frame %d: %+v, %v", i, m, err)
			}
		}
		if _, err := st.Next(); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
			t.Fatalf("Next = %v, want mid-stream handler error", err)
		}
		expectEcho(t, c, 1)
	}},

	{"StreamCloseBeforeTrailer", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		h := newCountStreamer()
		h.gate = make(chan struct{}, 16)
		c := start(t, h).client(t)
		st, err := c.CallStream(context.Background(), countRequest(t, 100, 0, -1))
		if err != nil {
			t.Fatal(err)
		}
		h.gate <- struct{}{}
		if _, err := st.Next(); err != nil {
			t.Fatalf("first frame: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("early Close: %v", err)
		}
		if _, err := st.Next(); !errors.Is(err, ErrStreamDone) {
			t.Fatalf("Next after Close = %v, want ErrStreamDone", err)
		}
		if n := liveConns(c); n != 0 {
			t.Fatalf("%d live connections after an abandoned stream, want 0", n)
		}
		for i := 0; i < 4; i++ {
			h.gate <- struct{}{} // let the abandoned handler run into its dead conn
		}
		expectEcho(t, c, 1)
	}},

	{"StreamClientCancelMidStream", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		h := newCountStreamer()
		h.gate = make(chan struct{}, 1024)
		c := start(t, h).client(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		st, err := c.CallStream(ctx, countRequest(t, 1_000_000, 4096, -1))
		if err != nil {
			t.Fatal(err)
		}
		h.gate <- struct{}{}
		h.gate <- struct{}{}
		for i := 0; i < 2; i++ {
			if _, err := st.Next(); err != nil {
				t.Fatalf("frame %d before cancel: %v", i, err)
			}
		}
		cancel()
		if _, err := st.Next(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Next after cancel = %v, want context.Canceled", err)
		}
		_ = st.Close()
		// Keep releasing frames until the server's write hits the closed
		// connection: it must observe the dead consumer rather than
		// stream into the void.
		deadline := time.After(10 * time.Second)
		for observed := false; !observed; {
			select {
			case err := <-h.sendErr:
				if err == nil {
					t.Fatal("handler published a nil send error")
				}
				observed = true
			case <-deadline:
				t.Fatal("server never observed the dead consumer")
			case h.gate <- struct{}{}:
			default:
				time.Sleep(time.Millisecond)
			}
		}
		expectEcho(t, c, 1)
	}},

	{"StalledReaderHitsFrameWriteDeadline", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		h := newCountStreamer()
		r := start(t, h)
		r.setStreamTimeout(200 * time.Millisecond)
		// A consumer that opens a stream and never reads: big frames fill
		// whatever buffering the connection has (none, on a pipe), then
		// the server's write blocks until the frame deadline fires instead
		// of pinning the serving goroutine.
		c := r.client(t)
		st, err := c.CallStream(context.Background(), countRequest(t, 100_000, 256<<10, -1))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		began := time.Now()
		select {
		case err := <-h.sendErr:
			var nerr net.Error
			if !errors.As(err, &nerr) || !nerr.Timeout() {
				t.Fatalf("send error = %v, want a write-deadline timeout", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("stalled reader never tripped the write deadline")
		}
		if waited := time.Since(began); waited > 10*time.Second {
			t.Fatalf("deadline took %v to fire with a 200ms frame timeout", waited)
		}
		expectServerCloses(t, r)
	}},

	{"StalledReaderHitsUnaryWriteDeadline", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		// One request whose reply outgrows any socket buffer, from a raw
		// peer that never reads: the reply write must fail at its
		// deadline, or the serving goroutine — and a draining Close behind
		// it — is pinned for as long as the peer cares to stay connected.
		reply := Message{Type: "big", Payload: make([]byte, 16<<20)}
		handled := make(chan struct{})
		r := start(t, HandlerFunc(func(context.Context, Message) (Message, error) {
			close(handled)
			return reply, nil
		}))
		r.setStreamTimeout(200 * time.Millisecond)
		raw, err := r.rawDial()
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		frame, err := appendFrame(nil, mustPing(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(frame); err != nil {
			t.Fatal(err)
		}
		<-handled
		expectServerCloses(t, r)
	}},

	{"DisabledWriteBoundClearsArmedDeadline", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		// A reply arms the deadline; switching the bound off must take
		// that deadline with it, or the same connection's next reply,
		// written after it passed, fails on a bound nobody set.
		r := start(t, echoHandler)
		r.setStreamTimeout(50 * time.Millisecond)
		raw, err := r.rawDial()
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
		replies := newFrameReader(raw)
		echo := func(n int) {
			t.Helper()
			frame, err := appendFrame(nil, mustPing(t, n))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Write(frame); err != nil {
				t.Fatalf("echo %d: %v", n, err)
			}
			if resp, err := replies.read(); err != nil || resp.Type != "echo" {
				t.Fatalf("echo %d: got %q, err=%v", n, resp.Type, err)
			}
		}
		echo(1)
		r.setStreamTimeout(-1)
		echo(2) // the write that clears it
		time.Sleep(150 * time.Millisecond)
		echo(3)
	}},

	{"MalformedFrameDropsConnection", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		header := func(version, flags, typeLen byte, payloadLen uint32) []byte {
			prefix := binary.BigEndian.AppendUint32([]byte{version, flags, typeLen}, payloadLen)
			return append(prefix, make([]byte, frameTraceLen)...)
		}
		traced := header(frameVersion, 0, 4, 0)
		traced[frameHeaderLen-1] = 1
		good, err := appendFrame(nil, mustPing(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name string
			sent []byte
			// cut: the peer hangs up after sending, mid-frame. Otherwise it
			// stays connected and must see the server hang up on it.
			cut bool
		}{
			{"WrongVersionByte", append(header(2, 0, 4, 0), "ping"...), false},
			{"OldClientJSON", []byte(`{"type":"verify"}` + "\n"), false},
			{"ReservedFlagBits", append(header(frameVersion, 0x80, 4, 0), "ping"...), false},
			{"PayloadLenOverCap", append(header(frameVersion, 0, 4, MaxFramePayload+1), "ping"...), false},
			{"PayloadLen4GiB", append(header(frameVersion, 0, 4, 0xFFFFFFFF), "ping"...), false},
			{"TraceSlotNotZero", append(traced, "ping"...), false},
			{"TypeLenOverrunsWhatWasSent", append(header(frameVersion, 0, 200, 0), "ping"...), true},
			{"HeaderCutMidWay", good[:frameHeaderLen-3], true},
			{"PayloadCutMidWay", good[:len(good)-2], true},
		}
		r := start(t, echoHandler)
		healthy := r.client(t)
		for i, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				raw, err := r.rawDial()
				if err != nil {
					t.Fatal(err)
				}
				defer raw.Close()
				if _, err := raw.Write(tc.sent); err != nil {
					t.Fatal(err)
				}
				if tc.cut {
					_ = raw.Close()
				} else {
					_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
					if n, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
						t.Fatalf("read %d bytes, err=%v: want the connection dropped without a reply", n, err)
					}
				}
				// Neither the server nor a client beside the bad peer noticed.
				expectEcho(t, healthy, i)
			})
		}
	}},

	{"OversizeReplyBecomesAppError", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		// A reply no frame can carry is refused before a byte is written,
		// so the caller is told why and the connection survives.
		huge := make([]byte, MaxFramePayload+1)
		c := start(t, HandlerFunc(func(ctx context.Context, req Message) (Message, error) {
			if req.Type == "huge" {
				return Message{Type: "huge", Payload: huge}, nil
			}
			return echoHandler(ctx, req)
		})).client(t)
		if _, err := c.Call(context.Background(), Message{Type: "huge"}); err == nil || !strings.Contains(err.Error(), ErrFrameTooLarge.Error()) {
			t.Fatalf("err = %v, want the frame-limit refusal as an application error", err)
		}
		if _, err := c.Call(context.Background(), Message{Type: "huge", Payload: huge}); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("oversize request: err = %v, want ErrFrameTooLarge", err)
		}
		// Neither refusal cost a connection: a pool with lazy permits left
		// has dialed one per call, and nothing was discarded.
		if n, want := liveConns(c), min(2, cap(c.slots)); n != want {
			t.Fatalf("%d live connections after two refused frames, want %d", n, want)
		}
		expectEcho(t, c, 1)
	}},

	{"ServerCloseDrainsInFlightExchange", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		h := newGatedHandler()
		r := start(t, h)
		t.Cleanup(h.open)
		c := r.client(t)
		type result struct {
			resp Message
			err  error
		}
		got := make(chan result, 1)
		req := mustPing(t, 9)
		go func() {
			resp, err := c.Call(context.Background(), req)
			got <- result{resp, err}
		}()
		<-h.started

		// Close while the exchange is mid-handling: it must block until
		// the reply is written, and the client must receive it, not a
		// reset.
		closed := make(chan struct{})
		go func() {
			_ = r.closeServer()
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatal("Close returned while an exchange was mid-handling")
		case <-time.After(30 * time.Millisecond):
		}
		h.open()
		res := <-got
		if res.err != nil {
			t.Fatalf("in-flight client lost its reply during drain: %v", res.err)
		}
		var p ping
		if err := res.resp.Decode(&p); err != nil || p.N != 9 {
			t.Fatalf("drained reply = %+v err=%v", p, err)
		}
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close never finished after the exchange completed")
		}
		// The drained connection is closed afterwards and the server is
		// gone: the next call fails.
		if _, err := c.Call(context.Background(), mustPing(t, 10)); err == nil {
			t.Fatal("call on a drained server succeeded")
		}
	}},

	{"ErrClosedAfterClientClose", func(t *testing.T, start func(*testing.T, Handler) *rig) {
		c := start(t, newCountStreamer()).client(t)
		expectEcho(t, c, 1)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if _, err := c.Call(context.Background(), mustPing(t, 2)); !errors.Is(err, ErrClosed) {
			t.Fatalf("Call after Close: err = %v, want ErrClosed", err)
		}
		if _, err := c.CallStream(context.Background(), countRequest(t, 1, 0, -1)); !errors.Is(err, ErrClosed) {
			t.Fatalf("CallStream after Close: err = %v, want ErrClosed", err)
		}
	}},
}

func TestTransportConformance(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			for _, row := range conformanceRows {
				t.Run(row.name, func(t *testing.T) { row.run(t, tr.start) })
			}
		})
	}
}

// setStreamWriteTimeout overrides the write deadline every reply frame is
// bounded by, unary replies included: zero restores
// DefaultStreamWriteTimeout, a negative duration disables the bound. Safe to
// call while serving.
func (s *Server) setStreamWriteTimeout(d time.Duration) {
	if d == 0 {
		d = DefaultStreamWriteTimeout
	}
	s.streamWriteTimeout.Store(int64(d))
}
