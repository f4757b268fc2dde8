// Command monitoring walks the authority's operator plane in-process: it
// starts a verification service behind an admin server on an ephemeral
// port, shows /readyz flipping from 503 to 200 as the startup gates mark,
// drives a few verifications, and scrapes /metrics to read the counters
// back as Prometheus text exposition — the exact loop a Kubernetes
// deployment runs with its probes and a Prometheus scraper.
package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/numeric"
	"rationality/internal/obs"
	"rationality/internal/proof"
	"rationality/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "monitoring:", err)
		os.Exit(1)
	}
}

func run() error {
	// The readiness latch declares the startup gates up front; the admin
	// server answers probes from the first moment, honestly reporting 503
	// until every gate marks.
	ready := obs.NewReadiness(obs.GateWarmStart)

	svc, err := service.New(service.Config{ID: "monitored"})
	if err != nil {
		return err
	}
	defer svc.Close()

	admin, err := obs.NewServer(obs.ServerConfig{
		Addr:      "127.0.0.1:0",
		ID:        "monitored",
		Stats:     svc.Stats,
		Readiness: ready,
	})
	if err != nil {
		return err
	}
	defer admin.Close()
	fmt.Printf("admin plane on %s\n", admin.Addr())

	// Before the warm-start gate marks, a load balancer keeps traffic away.
	code, body, err := get(admin.Addr(), "/readyz")
	if err != nil {
		return err
	}
	fmt.Printf("before warm-start: /readyz %d (%s)\n", code, strings.TrimSpace(body))
	if code != http.StatusServiceUnavailable {
		return fmt.Errorf("expected 503 before warm-start, got %d", code)
	}

	ready.Mark(obs.GateWarmStart)
	if code, _, err = get(admin.Addr(), "/readyz"); err != nil {
		return err
	}
	fmt.Printf("after warm-start:  /readyz %d\n", code)
	if code != http.StatusOK {
		return fmt.Errorf("expected 200 after warm-start, got %d", code)
	}

	// Liveness never depended on the gates: the process was always alive.
	if code, _, err = get(admin.Addr(), "/healthz"); err != nil {
		return err
	}
	fmt.Printf("liveness:          /healthz %d\n", code)

	// Drive some traffic so the scrape has counters to show: the second
	// and third verifications are cache hits.
	g, err := game.New("prisoners-dilemma", []int{2, 2})
	if err != nil {
		return err
	}
	g.SetPayoffs(game.Profile{0, 0}, numeric.I(3), numeric.I(3))
	g.SetPayoffs(game.Profile{0, 1}, numeric.I(0), numeric.I(5))
	g.SetPayoffs(game.Profile{1, 0}, numeric.I(5), numeric.I(0))
	g.SetPayoffs(game.Profile{1, 1}, numeric.I(1), numeric.I(1))
	ann, err := core.AnnounceEnumeration("inventor", g, proof.MaxNash)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.VerifyAnnouncement(context.Background(), ann); err != nil {
			return err
		}
	}

	// A Prometheus scrape is one GET; grep the families this demo moved.
	_, metrics, err := get(admin.Addr(), "/metrics")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "rationality_requests_total") ||
			strings.HasPrefix(line, "rationality_cache_hits_total") ||
			strings.HasPrefix(line, "rationality_ready ") {
			fmt.Println("scraped:", line)
		}
	}
	return nil
}

// get fetches one admin-plane path and returns status code and body.
func get(addr, path string) (int, string, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(body), nil
}
