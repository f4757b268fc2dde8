package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"rationality/internal/service"
)

// ServerConfig configures an admin Server.
type ServerConfig struct {
	// Addr is the listen address of the admin plane, e.g. "127.0.0.1:9090".
	// It should be a separate listener from the verification port: the
	// operator plane must stay reachable when the service port is
	// saturated, and pprof must never be exposed where clients connect.
	Addr string
	// ID is the verifier identity stamped on rationality_authority_info.
	ID string
	// Stats supplies the snapshot /metrics renders. It is called once per
	// scrape; it must be safe for concurrent use. A nil function serves
	// zero-valued stats — the admin plane can come up before the service
	// it observes (e.g. while a warm-start replay is still running).
	Stats func() service.Stats
	// Readiness, when non-nil, gates /readyz: 200 once every gate is
	// marked, 503 with the pending gate list before. Nil means /readyz
	// mirrors /healthz (an authority with nothing to wait for).
	Readiness *Readiness
	// ShutdownTimeout bounds Close's graceful drain of in-flight scrapes;
	// zero means DefaultShutdownTimeout.
	ShutdownTimeout time.Duration
}

// DefaultShutdownTimeout bounds the admin server's graceful shutdown when
// ServerConfig.ShutdownTimeout is zero: long enough for an in-flight
// scrape, far too short to hold a drain hostage.
const DefaultShutdownTimeout = 5 * time.Second

// Server is the authority's HTTP admin listener: /metrics (Prometheus
// text exposition), /healthz (process liveness), /readyz (readiness
// latch) and /debug/pprof (CPU, heap and contention profiles). Create it
// with NewServer — the listener is live when NewServer returns — and
// release it with Close, which drains in-flight requests gracefully.
type Server struct {
	ln      net.Listener
	srv     *http.Server
	timeout time.Duration
	done    chan error
}

// NewServer binds the admin listener and starts serving. The returned
// server is already answering probes; Close releases it.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("obs: admin server needs a listen address")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listener: %w", err)
	}
	timeout := cfg.ShutdownTimeout
	if timeout <= 0 {
		timeout = DefaultShutdownTimeout
	}
	s := &Server{
		ln:      ln,
		timeout: timeout,
		done:    make(chan error, 1),
	}
	s.srv = &http.Server{
		Handler: s.handler(cfg),
		// Scrapes and probes are small; generous-but-bounded timeouts keep
		// a wedged client from pinning admin connections forever. Pprof's
		// profile endpoints stream for their ?seconds= duration, so the
		// write timeout must comfortably exceed the profiling default
		// (30s) rather than the probe norm.
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      2 * time.Minute,
	}
	go func() {
		err := s.srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.done <- err
	}()
	return s, nil
}

// handler builds the admin mux. Routes are registered on a private mux,
// never http.DefaultServeMux, so embedding two authorities in one process
// cannot collide (and nothing else in the process leaks onto this port).
func (s *Server) handler(cfg ServerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var st service.Stats
		if cfg.Stats != nil {
			st = cfg.Stats()
		}
		w.Header().Set("Content-Type", MetricsContentType)
		_ = WriteMetrics(w, cfg.ID, st)
		if cfg.Readiness != nil {
			_ = WriteReadyMetrics(w, cfg.Readiness)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness is the process answering at all: if this handler runs,
		// the process is alive. Readiness is the separate, gated question.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.Readiness == nil || cfg.Readiness.Ready() {
			fmt.Fprintln(w, "ok")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		pending := strings.Join(cfg.Readiness.Pending(), ", ")
		if pending == "" {
			pending = "nothing" // the last gate was marked after Ready
		}
		fmt.Fprintf(w, "not ready: waiting on %s\n", pending)
	})
	// net/http/pprof registers on the default mux at import; wire its
	// handlers here explicitly so profiles live on the admin port only.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Addr is the bound admin address (useful when the config asked for
// port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the admin server down gracefully: the listener closes
// immediately (probes get connection-refused, which is what a draining
// process should answer), in-flight scrapes get up to the configured
// shutdown timeout to finish, and stragglers are cut off. Idempotent.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err == context.DeadlineExceeded {
		err = s.srv.Close()
	}
	if serveErr := <-s.done; err == nil {
		err = serveErr
	}
	// Close may be called again (e.g. a deferred close after an explicit
	// one); feed the drained channel so the second call cannot block.
	s.done <- nil
	return err
}
