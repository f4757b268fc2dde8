package game

import (
	"math/rand"
	"testing"

	"rationality/internal/numeric"
)

func TestNewCorrelatedDistributionValidation(t *testing.T) {
	g := battleOfSexes()
	if _, err := NewCorrelatedDistribution(g, map[string]*numeric.Rat{
		"[0 0]": numeric.R(1, 2),
	}); err == nil {
		t.Error("sub-stochastic distribution accepted")
	}
	if _, err := NewCorrelatedDistribution(g, map[string]*numeric.Rat{
		"[0 0]": numeric.R(3, 2),
		"[1 1]": numeric.Neg(numeric.R(1, 2)),
	}); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := NewCorrelatedDistribution(g, map[string]*numeric.Rat{
		"[7 7]": numeric.One(),
	}); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestBoSFairCorrelatedEquilibrium(t *testing.T) {
	g := battleOfSexes()
	// The classic device: flip a fair coin between the two pure equilibria.
	d, err := NewCorrelatedDistribution(g, map[string]*numeric.Rat{
		"[0 0]": numeric.R(1, 2),
		"[1 1]": numeric.R(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsCorrelatedEquilibrium(d) {
		t.Fatal("the coin-flip device should be a correlated equilibrium")
	}
	// Each agent expects (2+1)/2 = 3/2.
	for i := 0; i < 2; i++ {
		if got := g.ExpectedPayoffCorrelated(i, d); got.RatString() != "3/2" {
			t.Errorf("agent %d value = %s, want 3/2", i, got.RatString())
		}
	}
	if got := d.Prob(g, Profile{0, 0}); got.RatString() != "1/2" {
		t.Errorf("Prob = %s", got.RatString())
	}
}

func TestNonEquilibriumDistributionRejected(t *testing.T) {
	g := PrisonersDilemma()
	// All mass on (Cooperate, Cooperate): each agent wants to defect.
	d, err := NewCorrelatedDistribution(g, map[string]*numeric.Rat{
		"[0 0]": numeric.One(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.IsCorrelatedEquilibrium(d) {
		t.Fatal("(C, C) point mass accepted as correlated equilibrium")
	}
}

func TestSolveCorrelatedEquilibriumBoS(t *testing.T) {
	g := battleOfSexes()
	d, err := g.SolveCorrelatedEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsCorrelatedEquilibrium(d) {
		t.Fatal("solver returned a non-equilibrium")
	}
	// Max social welfare in BoS is 3 (either pure equilibrium); the optimal
	// correlated equilibrium achieves exactly 3.
	welfare := numeric.Add(g.ExpectedPayoffCorrelated(0, d), g.ExpectedPayoffCorrelated(1, d))
	if welfare.RatString() != "3" {
		t.Errorf("welfare = %s, want 3", welfare.RatString())
	}
}

func TestSolveCorrelatedEquilibriumChicken(t *testing.T) {
	// Chicken: the canonical game where correlation beats every Nash
	// equilibrium's welfare mix.
	//        Swerve  Dare
	// Swerve  (6,6)  (2,7)
	// Dare    (7,2)  (0,0)
	g := NewBimatrix("chicken",
		[][]int64{{6, 2}, {7, 0}},
		[][]int64{{6, 7}, {2, 0}},
	)
	d, err := g.SolveCorrelatedEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsCorrelatedEquilibrium(d) {
		t.Fatal("solver returned a non-equilibrium")
	}
	welfare := numeric.Add(g.ExpectedPayoffCorrelated(0, d), g.ExpectedPayoffCorrelated(1, d))
	// Pure equilibria give welfare 9; the mixed Nash gives less. The optimal
	// correlated equilibrium mixes in (Swerve, Swerve) and beats 9.
	if !numeric.Gt(welfare, numeric.I(9)) {
		t.Errorf("correlated welfare = %s, want > 9 (the Nash ceiling)", welfare.RatString())
	}
	// (Dare, Dare) must get zero mass: it is never obedient.
	if d.Prob(g, Profile{1, 1}).Sign() != 0 {
		t.Error("mass on (Dare, Dare)")
	}
}

// Property: every pure Nash equilibrium, as a point mass, is a correlated
// equilibrium; and the solver's optimum always verifies.
func TestNashPointMassIsCorrelatedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 60; trial++ {
		g := RandomGame("r", []int{2, 3}, 5, rng.Int63n)
		for _, eq := range g.AllNash() {
			d, err := NewCorrelatedDistribution(g, map[string]*numeric.Rat{
				eq.String(): numeric.One(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !g.IsCorrelatedEquilibrium(d) {
				t.Fatalf("trial %d: Nash point mass %v rejected", trial, eq)
			}
		}
		d, err := g.SolveCorrelatedEquilibrium()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !g.IsCorrelatedEquilibrium(d) {
			t.Fatalf("trial %d: solver output rejected", trial)
		}
	}
}
