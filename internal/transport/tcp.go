package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"
)

// TCPServer and TCPClient: the one server and client, under the names
// TCP callers have always used.
type (
	TCPServer = Server
	TCPClient = PoolClient
)

// ListenTCP starts a server on addr (e.g. "127.0.0.1:0") and begins
// accepting connections.
func ListenTCP(addr string, h Handler) (*TCPServer, error) {
	if h == nil {
		return nil, errors.New("transport: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return serve(ln, h), nil
}

// DialTCP connects to a TCPServer with a single-connection pool: calls
// serialize exactly as the classic client did. Use DialTCPPool to let
// concurrent calls proceed in parallel.
func DialTCP(addr string, timeout time.Duration) (*TCPClient, error) {
	return DialTCPPool(addr, timeout, 1)
}

// DialTCPPool connects to a TCPServer with a pool of up to poolSize
// connections (zero or negative means DefaultPoolSize): the first dialed
// eagerly so an unreachable server fails fast, the rest on demand. Every
// dial is bounded by both timeout and the calling context.
func DialTCPPool(addr string, timeout time.Duration, poolSize int) (*TCPClient, error) {
	d := net.Dialer{Timeout: timeout}
	return newPoolClient(func(ctx context.Context) (net.Conn, error) {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
		}
		return conn, nil
	}, poolSize)
}
