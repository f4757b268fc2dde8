package rationality_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/numeric"
	"rationality/internal/obs"
	"rationality/internal/proof"
	"rationality/internal/service"
)

// Example_monitoring walks the authority's operator plane in-process: it
// starts a verification service behind an admin server on an ephemeral
// port, shows /readyz flipping from 503 to 200 as the startup gates mark,
// drives a few verifications, and scrapes /metrics to read the counters
// back as Prometheus text exposition — the exact loop a Kubernetes
// deployment runs with its probes and a Prometheus scraper.
func Example_monitoring() {
	// The readiness latch declares the startup gates up front; the admin
	// server answers probes from the first moment, honestly reporting 503
	// until every gate marks.
	ready := obs.NewReadiness(obs.GateWarmStart)

	svc, err := service.New(service.Config{ID: "monitored"})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	admin, err := obs.NewServer(obs.ServerConfig{
		Addr:      "127.0.0.1:0",
		ID:        "monitored",
		Stats:     svc.Stats,
		Readiness: ready,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()

	// Before the warm-start gate marks, a load balancer keeps traffic away.
	code, body := adminGet(admin.Addr(), "/readyz")
	fmt.Printf("before warm-start: /readyz %d (%s)\n", code, strings.TrimSpace(body))

	ready.Mark(obs.GateWarmStart)
	code, _ = adminGet(admin.Addr(), "/readyz")
	fmt.Printf("after warm-start:  /readyz %d\n", code)

	// Liveness never depended on the gates: the process was always alive.
	code, _ = adminGet(admin.Addr(), "/healthz")
	fmt.Printf("liveness:          /healthz %d\n", code)

	// Drive some traffic so the scrape has counters to show: the second
	// and third verifications are cache hits.
	g, err := game.New("prisoners-dilemma", []int{2, 2})
	if err != nil {
		log.Fatal(err)
	}
	g.SetPayoffs(game.Profile{0, 0}, numeric.I(3), numeric.I(3))
	g.SetPayoffs(game.Profile{0, 1}, numeric.I(0), numeric.I(5))
	g.SetPayoffs(game.Profile{1, 0}, numeric.I(5), numeric.I(0))
	g.SetPayoffs(game.Profile{1, 1}, numeric.I(1), numeric.I(1))
	ann, err := core.AnnounceEnumeration("inventor", g, proof.MaxNash)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.VerifyAnnouncement(context.Background(), ann); err != nil {
			log.Fatal(err)
		}
	}

	// A Prometheus scrape is one GET; grep the families this demo moved.
	_, metrics := adminGet(admin.Addr(), "/metrics")
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "rationality_requests_total") ||
			strings.HasPrefix(line, "rationality_cache_hits_total") ||
			strings.HasPrefix(line, "rationality_ready ") {
			fmt.Println("scraped:", line)
		}
	}
	// Output:
	// before warm-start: /readyz 503 (not ready: waiting on warm-start)
	// after warm-start:  /readyz 200
	// liveness:          /healthz 200
	// scraped: rationality_requests_total 3
	// scraped: rationality_cache_hits_total 2
	// scraped: rationality_ready 1
}

// adminGet fetches one admin-plane path and returns status code and body.
func adminGet(addr, path string) (int, string) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return resp.StatusCode, string(body)
}
