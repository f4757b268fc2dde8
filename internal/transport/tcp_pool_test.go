package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Pool sizing: concurrent calls genuinely run in parallel on separate
// connections, and the default size applies. (Re-dial after a broken
// connection is a conformance row.)

func TestTCPPoolConcurrentCalls(t *testing.T) {
	// The handler is a barrier: no request completes until `clients`
	// requests are in flight at once. A client that serialized its calls
	// on one connection could never satisfy it.
	const clients = 4
	var arrived atomic.Int32
	barrier := make(chan struct{})
	h := HandlerFunc(func(ctx context.Context, req Message) (Message, error) {
		if arrived.Add(1) == clients {
			close(barrier)
		}
		select {
		case <-barrier:
			return req, nil
		case <-time.After(5 * time.Second):
			return Message{}, context.DeadlineExceeded
		}
	})
	srv, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialTCPPool(srv.Addr(), time.Second, clients)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, _ := NewMessage("ping", ping{N: i})
			resp, err := c.Call(ctx, req)
			if err != nil {
				errCh <- err
				return
			}
			var p ping
			if err := resp.Decode(&p); err != nil || p.N != i {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatalf("pooled concurrent call failed: %v", err)
		}
	}
}

func TestDialTCPPoolSizeDefaults(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialTCPPool(srv.Addr(), time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := cap(c.slots); got != DefaultPoolSize {
		t.Fatalf("pool size = %d, want DefaultPoolSize %d", got, DefaultPoolSize)
	}
}
