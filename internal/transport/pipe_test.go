package transport

import (
	"context"
	"errors"
	"testing"
)

// What is PipeNet's own: the name registry, the byte counter, and
// ErrClosed after Close. Everything else it does is the shared client
// and server, covered by the conformance suite.

func TestPipeNetDialUnknownAndDuplicateListen(t *testing.T) {
	n := NewPipeNet()
	defer n.Close()
	if _, err := n.Dial("ghost"); err == nil {
		t.Fatal("dialing an unknown name must fail")
	}
	if _, err := n.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a", echoHandler); err == nil {
		t.Fatal("duplicate listen must fail")
	}
	if _, err := n.Listen("", echoHandler); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := n.Listen("b", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

// TestPipeNetBytesOnWire pins the counter to the codec: one exchange
// costs exactly its two frames — the fixed header (seven bytes of
// version, flags and lengths, sixteen of reserved trace slot), the type,
// the payload, nothing between frames — whichever of the network's
// listeners carried it, and dialing costs nothing.
func TestPipeNetBytesOnWire(t *testing.T) {
	n := NewPipeNet()
	defer n.Close()
	want := uint64(0)
	for _, name := range []string{"a", "b"} {
		if _, err := n.Listen(name, echoHandler); err != nil {
			t.Fatal(err)
		}
		c, err := n.Dial(name)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got := n.BytesOnWire(); got != want {
			t.Fatalf("dialing %q moved the counter to %d, want %d", name, got, want)
		}
		req, err := NewMessage("ping", map[string]string{"to": name})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Call(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Message{req, resp} {
			want += uint64(7 + 16 + len(m.Type) + len(m.Payload))
		}
		if got := n.BytesOnWire(); got != want {
			t.Fatalf("after the exchange with %q: BytesOnWire = %d, want %d", name, got, want)
		}
	}
}

func TestPipeNetClose(t *testing.T) {
	n := NewPipeNet()
	if _, err := n.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The drained pipe is closed, and its replacement cannot be dialed.
	if _, err := c.Call(context.Background(), Message{Type: "ping"}); err == nil {
		t.Fatal("call through a closed network must fail")
	}
	if _, err := c.Call(context.Background(), Message{Type: "ping"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("re-dial through a closed network: want ErrClosed, got %v", err)
	}
	if _, err := n.Dial("a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("dial after close: want ErrClosed, got %v", err)
	}
	if _, err := n.Listen("b", echoHandler); !errors.Is(err, ErrClosed) {
		t.Fatalf("listen after close: want ErrClosed, got %v", err)
	}
}
