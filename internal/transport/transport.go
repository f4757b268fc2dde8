// Package transport provides the message layer the rationality-authority
// parties talk over: a typed request/response envelope carried in
// length-prefixed binary frames (frame.go: seven header bytes, the type,
// then the payload bytes untouched), one pooled client (PoolClient) and
// one server (Server). The two are parameterised only by where a net.Conn
// comes from: a TCP socket for genuinely distributed deployments
// (ListenTCP, DialTCP — one process per inventor/verifier/agent), or an
// in-memory pipe for tests and single-machine simulations (PipeNet for
// named multi-party networks, DialInProc for one co-located handler).
// Every path runs the same codec, framing and serve loop, so parties
// cannot tell the transports apart.
package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
)

// Message is the envelope every party exchanges: a type tag and a JSON
// payload. Keeping the payload raw lets the transport stay ignorant of the
// game-theoretic types above it: on the wire the payload is opaque bytes
// the transport neither scans nor validates. The JSON tags serve callers
// that log or pipe a Message as JSON; the wire does not use them.
type Message struct {
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// Last marks the terminal frame of a streaming exchange: the server
	// sets it on the trailer (or terminal error) so the client knows the
	// connection is back in request/response state. Unary exchanges never
	// set it.
	Last bool `json:"last,omitempty"`
}

// NewMessage marshals a payload into an envelope.
func NewMessage(msgType string, payload any) (Message, error) {
	if msgType == "" {
		return Message{}, errors.New("transport: empty message type")
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return Message{}, fmt.Errorf("transport: encoding %q payload: %w", msgType, err)
	}
	return Message{Type: msgType, Payload: data}, nil
}

// Decode unmarshals the payload into out.
func (m Message) Decode(out any) error {
	if err := json.Unmarshal(m.Payload, out); err != nil {
		return fmt.Errorf("transport: decoding %q payload: %w", m.Type, err)
	}
	return nil
}

// ErrorPayload is the body of the reserved "error" reply type.
type ErrorPayload struct {
	Error string `json:"error"`
}

// ErrorMessage builds the standard error reply.
func ErrorMessage(err error) Message {
	data, _ := json.Marshal(ErrorPayload{Error: err.Error()}) // a struct of one string cannot fail
	return Message{Type: "error", Payload: data}
}

// AsError extracts the error from an "error" reply, or nil for other types.
func (m Message) AsError() error {
	if m.Type != "error" {
		return nil
	}
	var p ErrorPayload
	if err := json.Unmarshal(m.Payload, &p); err != nil {
		return fmt.Errorf("transport: malformed error reply")
	}
	return errors.New(p.Error)
}

// Handler serves requests. Implementations must be safe for concurrent use:
// the server handles every connection on its own goroutine, in-memory
// connections included. The context a handler receives is the server's,
// not the remote caller's.
type Handler interface {
	Handle(ctx context.Context, req Message) (Message, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, req Message) (Message, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx context.Context, req Message) (Message, error) {
	return f(ctx, req)
}

// Client issues requests to a remote (or co-located) party.
type Client interface {
	// Call sends a request and waits for the reply. An application-level
	// failure arrives as an "error"-typed message translated into the
	// returned error.
	Call(ctx context.Context, req Message) (Message, error)
	// Close releases the client's resources.
	Close() error
}

// ErrClosed is returned by operations on a closed client or server.
var ErrClosed = errors.New("transport: closed")
