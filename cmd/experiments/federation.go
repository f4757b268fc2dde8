package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"rationality/internal/gossip/gossiptest"
)

// E12 — the federation-scale convergence bench behind BENCH_federation.json:
// epidemic push-pull gossip vs. the classic all-pairs pull interval, at
// n=20 and n=50 authorities. Every node starts with records no other node
// holds (full divergence, the worst case for anti-entropy); the gossip
// cluster steps lockstep fanout-2 rounds until every manifest is identical,
// the baseline cluster runs one n·(n−1) all-pairs pull interval. Both run
// over the same in-memory transport, so bytes-on-wire are exact and
// comparable. The claims under test: rounds-to-convergence stays within
// ⌈2·log₂ n⌉, and gossip moves strictly fewer bytes than one all-pairs
// interval.

// federationRecordsPerNode is how many distinct verdicts each authority
// seeds before the clock starts.
const federationRecordsPerNode = 2

// federationPoint is one cluster size's measurements in the artifact.
type federationPoint struct {
	N                int     `json:"n"`
	Fanout           int     `json:"fanout"`
	Seed             int64   `json:"seed"`
	RecordsPerNode   int     `json:"recordsPerNode"`
	RoundBudget      int     `json:"roundBudget"`
	GossipRounds     int     `json:"gossipRounds"`
	GossipExchanges  uint64  `json:"gossipExchanges"`
	GossipBytes      uint64  `json:"gossipBytes"`
	AllPairsPulls    int     `json:"allPairsPulls"`
	AllPairsBytes    uint64  `json:"allPairsIntervalBytes"`
	BytesRatio       float64 `json:"bytesRatio"`
	BytesPerExchange uint64  `json:"gossipBytesPerExchange"`
}

// federationBench is the BENCH_federation.json document.
type federationBench struct {
	Description string            `json:"description"`
	Environment map[string]string `json:"environment"`
	Points      []federationPoint `json:"points"`
}

// roundBudget is the ISSUE 8 convergence bound: ceil(2·log2(n)) lockstep
// push-pull rounds (9 for n=20, 12 for n=50).
func roundBudget(n int) int {
	return int(math.Ceil(2 * math.Log2(float64(n))))
}

// federationCluster builds a fully divergent n-node cluster in a fresh
// temp dir: every authority seeded with records only it holds.
func federationCluster(n int, seed int64) (*gossiptest.Cluster, string, error) {
	dir, err := os.MkdirTemp("", "federation-*")
	if err != nil {
		return nil, "", err
	}
	c, err := gossiptest.New(dir, gossiptest.Config{N: n, Fanout: 2, Seed: seed})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, "", err
	}
	for i := range c.Nodes {
		if err := c.Verify(i, c.Nodes[i].Addr, federationRecordsPerNode); err != nil {
			_ = c.Close()
			_ = os.RemoveAll(dir)
			return nil, "", err
		}
	}
	return c, dir, nil
}

// measureFederation runs both sides of the comparison for one cluster
// size. Separate cluster instances per side: the network byte counter is
// cumulative, and the baseline must not start from gossip-converged state.
func measureFederation(n int, seed int64) (federationPoint, error) {
	pt := federationPoint{
		N: n, Fanout: 2, Seed: seed,
		RecordsPerNode: federationRecordsPerNode,
		RoundBudget:    roundBudget(n),
		AllPairsPulls:  n * (n - 1),
	}
	ctx := context.Background()

	gossip, dir, err := federationCluster(n, seed)
	if err != nil {
		return pt, err
	}
	rounds, err := gossip.RoundsToConverge(ctx, pt.RoundBudget)
	if err == nil {
		pt.GossipRounds = rounds
		pt.GossipBytes = gossip.BytesOnWire()
		_, pt.GossipExchanges, _, _ = gossip.GossipStats()
	}
	if cerr := gossip.Close(); err == nil {
		err = cerr
	}
	_ = os.RemoveAll(dir)
	if err != nil {
		return pt, err
	}

	baseline, dir, err := federationCluster(n, seed)
	if err != nil {
		return pt, err
	}
	err = baseline.AllPairsPull(ctx)
	if err == nil {
		var ok bool
		if ok, err = baseline.Converged(); err == nil && !ok {
			err = fmt.Errorf("all-pairs interval did not converge %d nodes", n)
		}
		pt.AllPairsBytes = baseline.BytesOnWire()
	}
	if cerr := baseline.Close(); err == nil {
		err = cerr
	}
	_ = os.RemoveAll(dir)
	if err != nil {
		return pt, err
	}

	if pt.GossipExchanges > 0 {
		pt.BytesPerExchange = pt.GossipBytes / pt.GossipExchanges
	}
	pt.BytesRatio = float64(pt.GossipBytes) / float64(pt.AllPairsBytes)
	if pt.GossipBytes >= pt.AllPairsBytes {
		return pt, fmt.Errorf("gossip moved %d bytes at n=%d, not fewer than the all-pairs interval's %d",
			pt.GossipBytes, n, pt.AllPairsBytes)
	}
	return pt, nil
}

// runFederation drives E12 and writes BENCH_federation.json to the current
// directory (run it from the repo root to refresh the committed artifact).
func runFederation(cfg runConfig) error {
	bench := federationBench{
		Description: fmt.Sprintf(
			"Federation convergence: epidemic push-pull gossip (fanout 2, lockstep rounds) vs one all-pairs pull interval, both over the in-memory PipeNet with exact byte counting. Every node starts with %d records no other node holds. Budget = ceil(2*log2(n)) rounds; gossip must converge within it AND move strictly fewer bytes than the n*(n-1)-pull baseline. Regenerate: go run ./cmd/experiments -run federation (from the repo root).",
			federationRecordsPerNode),
		Environment: map[string]string{
			"go":   runtime.Version(),
			"date": time.Now().Format("2006-01-02"),
		},
	}
	seed := cfg.seed
	if seed == 0 {
		seed = 1
	}
	fmt.Fprintln(cfg.out, "    n  budget  rounds  exchanges  gossip-bytes  all-pairs-bytes  ratio")
	for _, n := range []int{20, 50} {
		pt, err := measureFederation(n, seed)
		if err != nil {
			return err
		}
		bench.Points = append(bench.Points, pt)
		fmt.Fprintf(cfg.out, "%5d  %6d  %6d  %9d  %12d  %15d  %5.3f\n",
			pt.N, pt.RoundBudget, pt.GossipRounds, pt.GossipExchanges,
			pt.GossipBytes, pt.AllPairsBytes, pt.BytesRatio)
	}
	doc, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_federation.json", append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(cfg.out, "wrote BENCH_federation.json")
	return nil
}
