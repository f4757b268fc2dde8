package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultStreamWriteTimeout bounds how long a server waits for a stalled
// reader to drain one reply frame before declaring the connection dead:
// a stream writes many frames to a peer that may have stopped reading,
// and a single unary reply can outgrow the socket buffers, so every
// reply write carries its own deadline.
const DefaultStreamWriteTimeout = 30 * time.Second

// ErrStreamDone is returned by Stream.Next after the terminal frame has
// been delivered (or the stream was closed early).
var ErrStreamDone = errors.New("transport: stream done")

// Stream is the client's view of one streaming exchange: a sequence of
// frames ending in a trailer whose Last flag is set. A server-side
// failure arrives as an "error"-typed terminal frame translated into the
// returned error. Streams are not safe for concurrent Next calls, but
// Close may be called from another goroutine to abort a blocked Next.
type Stream interface {
	// Next returns the next frame. After the terminal frame (Last set,
	// returned with a nil error) further calls return ErrStreamDone.
	Next() (Message, error)
	// Close releases the stream. Closing before the terminal frame
	// abandons the exchange and its connection; after it, a no-op.
	Close() error
}

// StreamCaller is a Client that can additionally run streaming
// exchanges. Only message types the server streams (StreamHandler.
// Streams) may be sent through CallStream: a unary reply to a streamed
// request has no terminal frame, so Next would block on the second call.
type StreamCaller interface {
	Client
	// CallStream sends a request and returns the reply stream. The
	// context bounds the whole exchange: cancellation mid-stream expires
	// the connection deadline, failing the next frame read promptly.
	CallStream(ctx context.Context, req Message) (Stream, error)
}

// StreamHandler is a Handler that serves some message types as frame
// streams instead of single replies. The server probes for it: a
// request whose type Streams() reports true is dispatched to
// HandleStream, everything else goes through Handle as before.
type StreamHandler interface {
	Handler
	// Streams reports whether msgType is served as a stream.
	Streams(msgType string) bool
	// HandleStream serves one streaming request: it calls send once per
	// intermediate frame (send blocks on backpressure and returns an
	// error when the connection is broken — the handler must stop
	// streaming then) and returns the trailer, which the transport
	// delivers with the Last flag set. A returned error becomes a
	// terminal "error" frame instead.
	HandleStream(ctx context.Context, req Message, send func(Message) error) (Message, error)
}

// serveStream runs the server half of one streaming exchange through the
// connection's reply writer, which bounds every frame write, trailer
// included, so a reader that stopped draining cannot pin a serving
// goroutine. An error means the connection is broken and must be dropped;
// nil, that the trailer was written and the connection is back in
// request/response state.
func serveStream(w *replyWriter, sh StreamHandler, req Message) error {
	trailer, err := sh.HandleStream(context.Background(), req, func(m Message) error {
		m.Last = false // the trailer is the transport's to mark
		return w.write(m)
	})
	if err != nil {
		trailer = ErrorMessage(err)
	}
	trailer.Last = true
	return w.finish(trailer)
}

// clientStream is the client's Stream: a frame reader positioned after
// the request was written, and a finish hook that returns (or discards)
// the underlying connection exactly once.
type clientStream struct {
	ctx  context.Context
	r    *frameReader
	done atomic.Bool
	once sync.Once
	// finish releases the connection; broken means the exchange did not
	// reach its terminal frame, so the connection is desynchronized.
	finish func(broken bool)
}

// end marks the stream done and runs the finish hook exactly once.
func (s *clientStream) end(broken bool) {
	s.done.Store(true)
	s.once.Do(func() { s.finish(broken) })
}

// Next implements Stream.
func (s *clientStream) Next() (Message, error) {
	if s.done.Load() {
		return Message{}, ErrStreamDone
	}
	m, err := s.r.read()
	if err != nil {
		s.end(true)
		return Message{}, fmt.Errorf("transport: reading stream frame: %w", ctxCause(s.ctx, err))
	}
	appErr := m.AsError()
	if m.Last || appErr != nil {
		// The trailer — or a unary error reply: the server refused the
		// request before any streaming began (e.g. a pre-streaming peer).
		// Either way the exchange is complete and the connection clean.
		s.end(false)
	}
	if appErr != nil {
		return Message{}, appErr
	}
	return m, nil
}

// Close implements Stream.
func (s *clientStream) Close() error {
	s.end(true)
	return nil
}
