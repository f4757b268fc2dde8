package game

import (
	"testing"

	"rationality/internal/numeric"
)

func uniformMixed(g *Game) MixedProfile {
	mp := make(MixedProfile, g.NumAgents())
	for i := range mp {
		k := g.NumStrategies(i)
		v := numeric.NewVec(k)
		for s := 0; s < k; s++ {
			v.SetAt(s, numeric.R(1, int64(k)))
		}
		mp[i] = v
	}
	return mp
}

func TestValidMixed(t *testing.T) {
	g := matchingPennies()
	if !g.ValidMixed(uniformMixed(g)) {
		t.Error("uniform profile should be valid")
	}
	if g.ValidMixed(nil) {
		t.Error("nil profile accepted")
	}
	if g.ValidMixed(MixedProfile{numeric.VecOfInts(1, 0)}) {
		t.Error("wrong agent count accepted")
	}
	bad := uniformMixed(g)
	bad[0] = numeric.VecOfInts(1, 1) // sums to 2
	if g.ValidMixed(bad) {
		t.Error("non-stochastic vector accepted")
	}
}

func TestPureAsMixed(t *testing.T) {
	g := PrisonersDilemma()
	mp := pureAsMixed(g, Profile{1, 0})
	if mp[0].String() != "(0, 1)" || mp[1].String() != "(1, 0)" {
		t.Errorf("pureAsMixed = (%s, %s)", mp[0], mp[1])
	}
}

func TestExpectedPayoffMatchesPure(t *testing.T) {
	g := PrisonersDilemma()
	for _, p := range allProfiles(g) {
		mp := pureAsMixed(g, p)
		for i := 0; i < g.NumAgents(); i++ {
			if !numeric.Eq(g.ExpectedPayoff(i, mp), g.Payoff(i, p)) {
				t.Fatalf("expected payoff of degenerate mix differs at %v agent %d", p, i)
			}
		}
	}
}

func TestExpectedPayoffUniformMatchingPennies(t *testing.T) {
	g := matchingPennies()
	mp := uniformMixed(g)
	for i := 0; i < 2; i++ {
		if got := g.ExpectedPayoff(i, mp); got.Sign() != 0 {
			t.Errorf("agent %d expected payoff = %s, want 0", i, got.RatString())
		}
	}
}

func TestIsMixedNashMatchingPennies(t *testing.T) {
	g := matchingPennies()
	if !isMixedNash(g, uniformMixed(g)) {
		t.Error("uniform profile is the MP equilibrium")
	}
	if isMixedNash(g, pureAsMixed(g, Profile{0, 0})) {
		t.Error("pure profile is not an MP equilibrium")
	}
}

func TestIsMixedNashAgreesWithPure(t *testing.T) {
	for _, g := range []*Game{PrisonersDilemma(), battleOfSexes(), coordination(), fig5Game(), threeAgentMajority()} {
		g.ForEachProfile(func(p Profile) bool {
			want := g.IsNash(p)
			if got := isMixedNash(g, pureAsMixed(g, p)); got != want {
				t.Errorf("%s: IsMixedNash(pure %v) = %v, IsNash = %v", g.Name(), p, got, want)
			}
			return true
		})
	}
}

func TestExpectedPayoffPureDeviation(t *testing.T) {
	g := matchingPennies()
	mp := uniformMixed(g)
	// Against a uniform opponent every deviation still yields 0.
	for si := 0; si < 2; si++ {
		if got := g.ExpectedPayoffPureDeviation(0, si, mp); got.Sign() != 0 {
			t.Errorf("deviation to %d = %s, want 0", si, got.RatString())
		}
	}
	// Against pure heads, matching (row plays heads) yields +1.
	pure := pureAsMixed(g, Profile{0, 0})
	if got := g.ExpectedPayoffPureDeviation(0, 0, pure); got.RatString() != "1" {
		t.Errorf("deviation payoff = %s, want 1", got.RatString())
	}
}

func TestThreeAgentMixedEquilibrium(t *testing.T) {
	g := threeAgentMajority()
	// Unanimity as a degenerate mixed profile is an equilibrium.
	if !isMixedNash(g, pureAsMixed(g, Profile{0, 0, 0})) {
		t.Error("unanimous pure profile should be a mixed equilibrium")
	}
	// The uniform profile is also an equilibrium of majority-matching by
	// symmetry: every strategy yields the same expected payoff.
	if !isMixedNash(g, uniformMixed(g)) {
		t.Error("uniform profile should be an equilibrium by symmetry")
	}
}

func TestExpectedPayoffPanicsOnInvalid(t *testing.T) {
	g := matchingPennies()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid mixed profile")
		}
	}()
	g.ExpectedPayoff(0, MixedProfile{numeric.VecOfInts(1)})
}
