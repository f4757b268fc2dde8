package game

import (
	"math/rand"
	"testing"

	"rationality/internal/numeric"
)

func TestPrisonersDilemmaNash(t *testing.T) {
	g := PrisonersDilemma()
	if !g.IsNash(Profile{1, 1}) {
		t.Error("(Defect, Defect) should be a Nash equilibrium")
	}
	for _, p := range []Profile{{0, 0}, {0, 1}, {1, 0}} {
		if g.IsNash(p) {
			t.Errorf("%v should not be an equilibrium", p)
		}
	}
	all := g.AllNash()
	if len(all) != 1 || !all[0].Equal(Profile{1, 1}) {
		t.Errorf("AllNash = %v", all)
	}
}

func TestMatchingPenniesHasNoPNE(t *testing.T) {
	if got := matchingPennies().AllNash(); len(got) != 0 {
		t.Errorf("Matching Pennies has PNE %v", got)
	}
}

func TestBattleOfSexesEquilibria(t *testing.T) {
	g := battleOfSexes()
	all := g.AllNash()
	if len(all) != 2 {
		t.Fatalf("AllNash = %v, want 2 equilibria", all)
	}
	if !all[0].Equal(Profile{0, 0}) || !all[1].Equal(Profile{1, 1}) {
		t.Errorf("AllNash = %v", all)
	}
	// The two equilibria are incomparable, so both are maximal.
	if !g.Incomparable(all[0], all[1]) {
		t.Error("BoS equilibria should be incomparable")
	}
	if !g.IsMaxNash(all[0]) || !g.IsMaxNash(all[1]) {
		t.Error("both BoS equilibria should be maximal")
	}
	if !g.IsMinNash(all[0]) || !g.IsMinNash(all[1]) {
		t.Error("both BoS equilibria should be minimal")
	}
}

func TestCoordinationMaximality(t *testing.T) {
	g := coordination()
	if !g.IsNash(Profile{0, 0}) || !g.IsNash(Profile{1, 1}) {
		t.Fatal("both diagonal profiles should be equilibria")
	}
	if g.IsMaxNash(Profile{0, 0}) {
		t.Error("[0 0] is dominated by [1 1]; not maximal")
	}
	if !g.IsMaxNash(Profile{1, 1}) {
		t.Error("[1 1] should be maximal")
	}
	if !g.IsMinNash(Profile{0, 0}) {
		t.Error("[0 0] should be minimal")
	}
	if g.IsMinNash(Profile{1, 1}) {
		t.Error("[1 1] dominates [0 0]; not minimal")
	}
}

func TestFig5GameEquilibrium(t *testing.T) {
	g := fig5Game()
	// (A, C) = [0 0] is a pure equilibrium with payoffs (1, 1).
	if !g.IsNash(Profile{0, 0}) {
		t.Error("(A, C) should be an equilibrium")
	}
	if got := g.Payoff(0, Profile{0, 0}); got.RatString() != "1" {
		t.Errorf("λ1 = %s, want 1", got.RatString())
	}
	if got := g.Payoff(1, Profile{0, 0}); got.RatString() != "1" {
		t.Errorf("λ2 = %s, want 1", got.RatString())
	}
	// (B, D) is not: the column agent would deviate to C (payoff 1 > 0).
	if g.IsNash(Profile{1, 1}) {
		t.Error("(B, D) should not be an equilibrium")
	}
}

func TestThreeAgentMajority(t *testing.T) {
	g := threeAgentMajority()
	if !g.IsNash(Profile{0, 0, 0}) || !g.IsNash(Profile{1, 1, 1}) {
		t.Error("unanimous profiles should be equilibria")
	}
	// 2-vs-1 splits: the minority agent cannot gain by switching (it would
	// join the majority and gain), so e.g. [0 0 1] is NOT an equilibrium.
	if g.IsNash(Profile{0, 0, 1}) {
		t.Error("[0 0 1] should not be an equilibrium")
	}
}

func TestFindDeviationWitness(t *testing.T) {
	g := PrisonersDilemma()
	dev, ok := g.FindDeviation(Profile{0, 0})
	if !ok {
		t.Fatal("(C, C) must have a profitable deviation")
	}
	// The witness must actually improve the deviator's payoff.
	p := Profile{0, 0}
	before := g.Payoff(dev.Agent, p)
	after := g.Payoff(dev.Agent, p.Change(dev.Agent, dev.Strategy))
	if !numeric.Gt(after, before) {
		t.Errorf("witness does not improve: %s -> %s", before, after)
	}

	if _, ok := g.FindDeviation(Profile{1, 1}); ok {
		t.Error("equilibrium should have no deviation")
	}
}

func TestLeU(t *testing.T) {
	g := coordination()
	if !g.LeU(Profile{0, 0}, Profile{1, 1}) {
		t.Error("[0 0] ≤u [1 1] should hold")
	}
	if g.LeU(Profile{1, 1}, Profile{0, 0}) {
		t.Error("[1 1] ≤u [0 0] should not hold")
	}
	if !g.LeU(Profile{0, 0}, Profile{0, 0}) {
		t.Error("≤u must be reflexive")
	}
}

// Property: IsNash(p) agrees with the definition ∀i ∀si: ui(p) >= ui(change).
func TestIsNashMatchesDefinitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		g := RandomGame("r", []int{2, 3, 2}, 4, rng.Int63n)
		g.ForEachProfile(func(p Profile) bool {
			want := true
			for i := 0; i < g.NumAgents() && want; i++ {
				for si := 0; si < g.NumStrategies(i); si++ {
					if numeric.Gt(g.Payoff(i, p.Change(i, si)), g.Payoff(i, p)) {
						want = false
						break
					}
				}
			}
			if got := g.IsNash(p); got != want {
				t.Fatalf("trial %d: IsNash(%v) = %v, want %v", trial, p, got, want)
			}
			return true
		})
	}
}

// Property: every maximal equilibrium is an equilibrium, and if any
// equilibrium exists, at least one maximal equilibrium exists.
func TestMaxNashExistsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		g := RandomGame("r", []int{3, 3}, 5, rng.Int63n)
		all := g.AllNash()
		if len(all) == 0 {
			continue
		}
		foundMax := false
		for _, p := range all {
			if g.IsMaxNash(p) {
				foundMax = true
				if !g.IsNash(p) {
					t.Fatal("maximal equilibrium is not an equilibrium")
				}
			}
		}
		if !foundMax {
			t.Fatalf("trial %d: %d equilibria but no maximal one", trial, len(all))
		}
	}
}
