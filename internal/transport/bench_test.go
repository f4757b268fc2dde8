package transport

import (
	"context"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// BenchmarkFrameRoundTrip is the codec's share of a hot verify: a 229-byte
// request and a 163-byte reply (the sizes bench/ measures on hot-verify)
// over a PipeNet, so the figure is frame encode + decode both ways, pool
// checkout and the serve loop, with no kernel socket in it. The payloads
// are JSON strings so the same benchmark runs on a JSON-envelope parent.
func BenchmarkFrameRoundTrip(b *testing.B) {
	jsonString := func(n int) []byte { return []byte(`"` + strings.Repeat("x", n-2) + `"`) }
	reply := Message{Type: "verdict", Payload: jsonString(163)}
	n := NewPipeNet()
	defer n.Close()
	if _, err := n.Listen("auth", HandlerFunc(func(context.Context, Message) (Message, error) { return reply, nil })); err != nil {
		b.Fatal(err)
	}
	c, err := n.Dial("auth")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := Message{Type: "verify", Payload: jsonString(229)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeRoundTrip is one unary exchange over an in-memory pipe:
// the whole client and server — pool checkout, frame codec both ways,
// serve loop — minus the kernel socket BenchmarkTCPRoundTrip adds.
func BenchmarkPipeRoundTrip(b *testing.B) {
	c := DialInProc(echoHandler)
	defer c.Close()
	req, err := NewMessage("ping", ping{N: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := DialTCP(srv.Addr(), time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req, err := NewMessage("ping", ping{N: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: messages of arbitrary payload bytes survive the envelope, the
// codec and an in-memory pipe unchanged.
func TestMessagePayloadRoundTripProperty(t *testing.T) {
	c := DialInProc(echoHandler)
	defer c.Close()
	f := func(n int32, s string) bool {
		req, err := NewMessage("ping", map[string]any{"n": n, "s": s})
		if err != nil {
			return false
		}
		resp, err := c.Call(context.Background(), req)
		if err != nil {
			return false
		}
		var out struct {
			N int32  `json:"n"`
			S string `json:"s"`
		}
		if err := resp.Decode(&out); err != nil {
			return false
		}
		return out.N == n && out.S == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
