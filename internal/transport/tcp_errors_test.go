package transport

import (
	"context"
	"net"
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

func TestTCPMalformedFrameDropsConnection(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A raw client sends bytes that are not a JSON Message frame.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("!!! this is not json !!!")); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection rather than hang or crash: the
	// next read observes EOF (or a reset), never a reply frame.
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if n, err := raw.Read(buf); err == nil {
		t.Fatalf("server replied %d bytes to a malformed frame, want dropped connection", n)
	}

	// The listener survives: a well-formed client still gets service.
	c, err := DialTCP(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req, _ := NewMessage("ping", ping{N: 7})
	resp, err := c.Call(context.Background(), req)
	if err != nil {
		t.Fatalf("healthy client failed after a malformed peer: %v", err)
	}
	var p ping
	if err := resp.Decode(&p); err != nil || p.N != 7 {
		t.Fatalf("echo after malformed peer: %+v err=%v", p, err)
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
			_, _ = raw.Write([]byte("garbage\x00\x01"))
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
