package node_test

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"rationality/internal/node"
	"rationality/internal/transport"
)

// persisted is the configuration of `authority verifier -persist <tmp>`
// listening on addr.
func persisted(t *testing.T, addr string) node.Config {
	cfg := node.Defaults()
	cfg.ID, cfg.Listen, cfg.Persist = addr, addr, t.TempDir()
	return cfg
}

// settledGoroutines waits for the goroutine count to fall to at most n,
// reporting the count it settled on.
func settledGoroutines(n int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// A start that fails after opening things closes every one of them: the
// verdict store (its flusher and its store.lock), the trust policy's
// service, the admin plane. A second start on the same persist dir, made
// at once, must then succeed — a leaked service would still hold the lock.
func TestFailedStartReleasesEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cfg := persisted(t, taken.Addr().String())
	cfg.Admin = "127.0.0.1:0"
	if _, err := node.Start(cfg, node.TCP(time.Second)); err == nil {
		t.Fatal("start on a taken address succeeded")
	}
	// service.New refuses this one, after the key, the admin plane and the
	// trust policy are up.
	bad := cfg
	bad.Listen, bad.AuditRate = "127.0.0.1:0", 2
	if _, err := node.Start(bad, node.TCP(time.Second)); err == nil || !strings.Contains(err.Error(), "AuditRate") {
		t.Fatalf("start with audit rate 2: %v", err)
	}
	cfg.Listen = "127.0.0.1:0"
	n, err := node.Start(cfg, node.TCP(time.Second))
	if err != nil {
		t.Fatalf("second start on the same persist dir: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	_ = taken.Close()
	if after := settledGoroutines(before); after > before {
		t.Fatalf("%d goroutines before the starts, %d after every node closed", before, after)
	}
}

// Validate runs before Start touches the disk: a refused configuration
// leaves no signing identity behind.
func TestStartValidatesFirst(t *testing.T) {
	cfg := persisted(t, "a")
	cfg.Fanout = 0
	if _, err := node.Start(cfg, node.Pipe(transport.NewPipeNet())); err == nil || !strings.Contains(err.Error(), "-fanout") {
		t.Fatalf("fanout 0: %v", err)
	}
	if _, err := os.Stat(filepath.Join(cfg.Persist, "identity.key")); !os.IsNotExist(err) {
		t.Fatalf("a refused start wrote its identity: %v", err)
	}
}

// The production wiring end to end: two persisted nodes over a PipeNet,
// one with the admin plane and the other as its peer. /readyz answers 503
// naming first-sync until a round has exchanged, then 200, and /metrics
// then counts the round.
func TestReadyzWaitsForFirstSync(t *testing.T) {
	pipe := transport.NewPipeNet()
	defer pipe.Close()
	b, err := node.Start(persisted(t, "b"), node.Pipe(pipe))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cfg := persisted(t, "a")
	cfg.Peers, cfg.SyncInterval, cfg.Admin = []string{"b"}, 0, "127.0.0.1:0"
	a, err := node.Start(cfg, node.Pipe(pipe))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + a.Admin.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "first-sync") {
		t.Fatalf("before any round: /readyz %d %q, want 503 naming first-sync", code, body)
	}
	if err := a.Gossiper.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("after an exchanging round: /readyz %d %q, want 200", code, body)
	}
	if _, metrics := get("/metrics"); !regexp.MustCompile(`(?m)^rationality_sync_rounds_total [1-9]`).MatchString(metrics) {
		t.Fatalf("/metrics counts no sync round:\n%s", metrics)
	}
}
