package main

import (
	"net"
	"sync"
	"sync/atomic"
)

// relay is a loopback TCP forwarder that counts the bytes it carries in each
// direction. The wire pass puts one between the generator and an authority,
// so wire_bytes_per_verdict is measured on real connections without touching
// the transport package.
type relay struct {
	ln     net.Listener
	target string
	up     atomic.Int64 // client -> authority
	down   atomic.Int64 // authority -> client

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) bytes() int64 { return r.up.Load() + r.down.Load() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s, err := net.Dial("tcp", r.target)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, s)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(s, c, &r.up)
		go r.pipe(c, s, &r.down)
	}
}

// pipe copies src to dst, counting, and closes dst's write side when src ends
// so the other direction drains and finishes too.
func (r *relay) pipe(dst, src net.Conn, count *atomic.Int64) {
	defer r.wg.Done()
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			count.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	if tc, ok := dst.(*net.TCPConn); ok {
		_ = tc.CloseWrite() // a reset peer is already closed
	} else {
		_ = dst.Close()
	}
}

// close stops accepting, closes every carried connection and waits for the
// copy goroutines.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
