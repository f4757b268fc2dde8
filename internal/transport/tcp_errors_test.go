package transport

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// What only a kernel socket can show: refused connections, garbage on the
// wire from a raw peer, and misbehaving raw clients sharing a listener
// with honest ones. Everything else is in the conformance suite.

func TestDialTCPConnectionRefused(t *testing.T) {
	// Bind and immediately close a listener so the port is known-dead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = DialTCP(addr, 200*time.Millisecond)
	if err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	if !strings.Contains(err.Error(), addr) {
		t.Fatalf("refused-dial error %q does not name the address %q", err, addr)
	}
}

// TestTCPMalformedFrameDropsConnection sprays seeded binary garbage at a
// kernel socket (the conformance suite's MalformedFrameDropsConnection
// row covers each named malformation on every transport): whatever the
// bytes, the server drops that connection without a reply and keeps
// serving everyone else.
func TestTCPMalformedFrameDropsConnection(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialTCP(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 32; i++ {
		garbage := make([]byte, frameHeaderLen+rng.Intn(512)) // a shorter one would just be waited on
		rng.Read(garbage)
		if garbage[0] == frameVersion {
			garbage[0] = 0xfe // a frame-shaped prefix would make the server wait for more
		}
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(garbage); err != nil {
			t.Fatal(err)
		}
		// The server must drop the connection rather than hang or crash:
		// the next read observes EOF (or a reset), never a reply frame.
		_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		if n, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("spray %d (% x...): read %d bytes, err=%v: want a dropped connection", i, garbage[:min(8, len(garbage))], n, err)
		}
		_ = raw.Close()
		// The listener survives: a well-formed client still gets service.
		expectEcho(t, c, i)
	}
}

func TestTCPConcurrentClientsWithMisbehavingPeers(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 6
	const callsPerClient = 5
	var wg sync.WaitGroup
	errCh := make(chan error, clients*callsPerClient+1)

	// Honest clients issue several sequential calls each...
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialTCP(srv.Addr(), time.Second)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for j := 0; j < callsPerClient; j++ {
				req, _ := NewMessage("ping", ping{N: i*100 + j})
				resp, err := c.Call(context.Background(), req)
				if err != nil {
					errCh <- err
					return
				}
				var p ping
				if err := resp.Decode(&p); err != nil || p.N != i*100+j {
					errCh <- err
					return
				}
			}
		}(i)
	}
	// ...while misbehaving peers spray garbage and slam connections shut.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 4; j++ {
			raw, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			// Alternately not a frame at all and a frame header promising
			// a payload that never comes.
			garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0xff, 0xfe}
			if j%2 == 1 {
				garbage = []byte{frameVersion, 0, 4, 0, 0, 0x10, 0, 'p', 'i'}
			}
			_, _ = raw.Write(garbage)
			_ = raw.Close()
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
}
