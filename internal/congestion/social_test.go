package congestion

import (
	"math/rand"
	"testing"

	"rationality/internal/numeric"
)

func TestMarginalCostMatchesGreedyOnIdentityLinks(t *testing.T) {
	// On parallel identity links, marginal cost (We + w) − We = w is the
	// same for all links plus the joining delay ordering... actually the
	// marginal cost is constant w per link, so ALL links tie and the
	// tie-break picks link 0-first among equal-distance candidates — while
	// greedy picks the least loaded. They differ! This test pins the actual
	// behaviour: marginal-cost routing on identity links is load-oblivious.
	net := MustNetwork(2)
	l0 := net.MustAddEdge(0, 1, Identity())
	net.MustAddEdge(0, 1, Identity())
	c := NewConfig(net)
	if _, err := c.Join(0, 1, numeric.I(5), Path{l0}); err != nil {
		t.Fatal(err)
	}
	p, err := (MarginalCostStrategy{}).ChoosePath(c, Arrival{0, 1, numeric.One()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 || p[0] != l0 {
		t.Fatalf("marginal-cost path = %v, want tie-broken to edge 0", p)
	}
}

func TestMarginalCostAvoidsSteepEdges(t *testing.T) {
	// Two routes 0→1: a cubic-delay edge already carrying load (steep
	// marginal cost) vs a linear edge with higher absolute delay but flat
	// marginal cost. Greedy (absolute delay) picks the cubic edge; the
	// inventor (marginal Λ) picks the linear one.
	net := MustNetwork(2)
	eCubic := net.MustAddEdge(0, 1, &MonomialDelay{C: numeric.One(), Degree: 3})
	eLinear := net.MustAddEdge(0, 1, &LinearDelay{A: numeric.Zero(), B: numeric.I(30)})

	c := NewConfig(net)
	if _, err := c.Join(0, 1, numeric.I(2), Path{eCubic}); err != nil {
		t.Fatal(err)
	}
	// Absolute delays for a unit arrival: cubic (2+1)³ = 27 < 30 linear →
	// greedy takes the cubic edge.
	greedyPath, _, err := ShortestPath(c, 0, 1, numeric.One())
	if err != nil {
		t.Fatal(err)
	}
	if greedyPath[0] != eCubic {
		t.Fatalf("greedy path = %v, want the cubic edge", greedyPath)
	}
	// Marginal Λ increase: cubic 27 − 8 = 19 vs constant 30 − 30 = 0 → the
	// inventor routes over the constant edge.
	socialPath, err := (MarginalCostStrategy{}).ChoosePath(c, Arrival{0, 1, numeric.One()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if socialPath[0] != eLinear {
		t.Fatalf("marginal-cost path = %v, want the constant edge", socialPath)
	}
}

func TestMarginalCostReducesTotalCongestion(t *testing.T) {
	// On a heterogeneous two-route network, the inventor's routing ends with
	// total congestion Λ no worse than greedy's for the same arrivals.
	build := func() *Network {
		net := MustNetwork(2)
		net.MustAddEdge(0, 1, &MonomialDelay{C: numeric.One(), Degree: 2})
		net.MustAddEdge(0, 1, Identity())
		return net
	}
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(6)
		arrivals := make([]Arrival, n)
		for i := range arrivals {
			arrivals[i] = Arrival{Source: 0, Sink: 1, Load: numeric.I(int64(1 + rng.Intn(3)))}
		}
		greedyRes, err := RunOnline(build(), arrivals, GreedyStrategy{})
		if err != nil {
			t.Fatal(err)
		}
		socialRes, err := RunOnline(build(), arrivals, MarginalCostStrategy{})
		if err != nil {
			t.Fatal(err)
		}
		if numeric.Gt(socialRes.Config.TotalCongestion(), greedyRes.Config.TotalCongestion()) {
			t.Fatalf("trial %d: inventor Λ=%s worse than greedy Λ=%s",
				trial,
				socialRes.Config.TotalCongestion().RatString(),
				greedyRes.Config.TotalCongestion().RatString())
		}
	}
}

func TestMarginalCostValidation(t *testing.T) {
	net := MustNetwork(2)
	net.MustAddEdge(0, 1, Identity())
	c := NewConfig(net)
	if _, err := (MarginalCostStrategy{}).ChoosePath(c, Arrival{0, 9, numeric.One()}, 0); err == nil {
		t.Error("bad sink accepted")
	}
	if _, err := (MarginalCostStrategy{}).ChoosePath(c, Arrival{0, 1, numeric.Zero()}, 0); err == nil {
		t.Error("zero load accepted")
	}
	if _, err := (MarginalCostStrategy{}).ChoosePath(c, Arrival{0, 0, numeric.One()}, 0); err == nil {
		t.Error("src == sink accepted")
	}
	// Unreachable sink.
	net3 := MustNetwork(3)
	net3.MustAddEdge(0, 1, Identity())
	c3 := NewConfig(net3)
	if _, err := (MarginalCostStrategy{}).ChoosePath(c3, Arrival{0, 2, numeric.One()}, 0); err == nil {
		t.Error("unreachable sink accepted")
	}
}
