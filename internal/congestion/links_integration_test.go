package congestion

import (
	"math/rand"
	"testing"

	"rationality/internal/links"
	"rationality/internal/numeric"
)

// The parallel-links model of package links is exactly a two-node congestion
// network with m parallel identity-delay edges. These tests pin the two
// implementations to each other: the greedy strategy must produce identical
// link loads in both, so results from the fast integer simulator (Fig. 7)
// transfer to the general-network model.

func TestGreedyMatchesLinksModel(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(6)
		n := 1 + rng.Intn(30)
		loads := links.UniformLoads(rng, n, 50)

		// Fast integer simulator.
		sys, err := links.Run(m, loads, links.Greedy{})
		if err != nil {
			t.Fatal(err)
		}

		// General-network model: 2 nodes, m parallel identity edges.
		net := MustNetwork(2)
		for j := 0; j < m; j++ {
			net.MustAddEdge(0, 1, Identity())
		}
		arrivals := make([]Arrival, n)
		for i, w := range loads {
			arrivals[i] = Arrival{Source: 0, Sink: 1, Load: numeric.I(w)}
		}
		res, err := RunOnline(net, arrivals, GreedyStrategy{})
		if err != nil {
			t.Fatal(err)
		}

		// The greedy choice differs subtly: links.Greedy picks the least
		// LOADED link, while the network greedy picks the least DELAY path
		// after joining — identical for identity delays. Loads must agree
		// edge for edge (both tie-break towards lower indices).
		want := sys.Loads()
		for j := 0; j < m; j++ {
			got := res.Config.loads[j]
			if !numeric.Eq(got, numeric.I(want[j])) {
				t.Fatalf("trial %d: edge %d load %s, links model has %d",
					trial, j, got.RatString(), want[j])
			}
		}
	}
}

func TestMakespanEqualsMaxEdgeDelayOnIdentityLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	loads := links.UniformLoads(rng, 40, 100)
	const m = 5
	sys, err := links.Run(m, loads, links.Greedy{})
	if err != nil {
		t.Fatal(err)
	}

	net := MustNetwork(2)
	for j := 0; j < m; j++ {
		net.MustAddEdge(0, 1, Identity())
	}
	cfg := NewConfig(net)
	// Replay the same assignment.
	s2, err := links.NewSystem(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range loads {
		link := s2.LeastLoaded()
		if err := s2.Assign(link, w); err != nil {
			t.Fatal(err)
		}
		if _, err := cfg.Join(0, 1, numeric.I(w), Path{link}); err != nil {
			t.Fatal(err)
		}
	}

	// Makespan (max link load) equals the max edge delay for identity
	// delays.
	maxDelay := numeric.Zero()
	for j := 0; j < m; j++ {
		if d := cfg.EdgeDelay(j); numeric.Gt(d, maxDelay) {
			maxDelay = d
		}
	}
	if !numeric.Eq(maxDelay, numeric.I(sys.Makespan())) {
		t.Fatalf("max edge delay %s != makespan %d", maxDelay.RatString(), sys.Makespan())
	}
}
