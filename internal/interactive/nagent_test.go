package interactive

import (
	"math/big"
	"testing"

	"rationality/internal/game"
	"rationality/internal/numeric"
)

func uniformProfile(g *game.Game) game.MixedProfile {
	mp := make(game.MixedProfile, g.NumAgents())
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

func TestNAgentHonestAdviceAccepted(t *testing.T) {
	g := threeAgentMajority()
	mp := uniformProfile(g)
	advice, err := BuildNAgentAdvice(g, mp)
	if err != nil {
		t.Fatal(err)
	}
	values, err := VerifyNAgent(g, advice)
	if err != nil {
		t.Fatalf("honest advice rejected: %v", err)
	}
	if len(values) != 3 {
		t.Fatalf("values = %v", values)
	}
	// By symmetry every agent's value is Pr[at least one of the two others
	// matches me] = 1 − 1/2·1/2 = 3/4... check: matches majority means at
	// least one other picks my side: 1 − (1/2)² = 3/4.
	for i, v := range values {
		if v.RatString() != "3/4" {
			t.Errorf("agent %d value = %s, want 3/4", i, v.RatString())
		}
	}
}

func TestNAgentPureEquilibriumAdvice(t *testing.T) {
	g := game.PrisonersDilemma()
	mp := game.MixedProfile{numeric.VecOfInts(0, 1), numeric.VecOfInts(0, 1)}
	advice, err := BuildNAgentAdvice(g, mp)
	if err != nil {
		t.Fatal(err)
	}
	values, err := VerifyNAgent(g, advice)
	if err != nil {
		t.Fatalf("pure equilibrium advice rejected: %v", err)
	}
	if values[0].RatString() != "1" || values[1].RatString() != "1" {
		t.Errorf("values = (%s, %s), want (1, 1)", values[0], values[1])
	}
}

func TestNAgentRejectsNonEquilibrium(t *testing.T) {
	g := game.PrisonersDilemma()
	mp := game.MixedProfile{numeric.VecOfInts(1, 0), numeric.VecOfInts(1, 0)} // cooperate-cooperate: not an equilibrium
	advice, err := BuildNAgentAdvice(g, mp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyNAgent(g, advice); err == nil {
		t.Fatal("non-equilibrium advice accepted")
	}
}

func TestNAgentRejectsMalformedAdvice(t *testing.T) {
	g := threeAgentMajority()
	mp := uniformProfile(g)
	honest, err := BuildNAgentAdvice(g, mp)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := VerifyNAgent(g, nil); err == nil {
		t.Error("nil advice accepted")
	}

	short := &NAgentAdvice{Supports: honest.Supports[:2], Probs: honest.Probs[:2]}
	if _, err := VerifyNAgent(g, short); err == nil {
		t.Error("wrong agent count accepted")
	}

	badSupport := &NAgentAdvice{
		Supports: [][]int{{0, 1}, {0, 1}, {7}},
		Probs:    honest.Probs,
	}
	if _, err := VerifyNAgent(g, badSupport); err == nil {
		t.Error("out-of-range support accepted")
	}

	mismatched := &NAgentAdvice{
		Supports: [][]int{{0}, {0, 1}, {0, 1}},
		Probs:    honest.Probs,
	}
	if _, err := VerifyNAgent(g, mismatched); err == nil {
		t.Error("support/probability mismatch accepted")
	}
}

func TestNAgentBuildRejectsInvalidProfile(t *testing.T) {
	g := threeAgentMajority()
	if _, err := BuildNAgentAdvice(g, game.MixedProfile{numeric.VecOfInts(1)}); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestNAgentTwoAgentMatchesP1(t *testing.T) {
	// The n-agent verifier specialized to 2 agents must agree with the
	// bimatrix machinery on Matching Pennies.
	g := game.NewBimatrix("matching-pennies",
		[][]int64{{1, -1}, {-1, 1}},
		[][]int64{{-1, 1}, {1, -1}},
	)
	mp := uniformProfile(g)
	advice, err := BuildNAgentAdvice(g, mp)
	if err != nil {
		t.Fatal(err)
	}
	values, err := VerifyNAgent(g, advice)
	if err != nil {
		t.Fatalf("uniform MP advice rejected: %v", err)
	}
	if values[0].Sign() != 0 || values[1].Sign() != 0 {
		t.Errorf("values = (%s, %s), want (0, 0)", values[0], values[1])
	}
}

// threeAgentMajority is a 3-agent, 2-strategy majority coordination game:
// each agent gains 1 when it sides with the majority, else 0.
func threeAgentMajority() *game.Game {
	g, err := game.FromFunc("majority-3", []int{2, 2, 2}, func(i int, p game.Profile) *big.Rat {
		if p[(i+1)%3] == p[i] || p[(i+2)%3] == p[i] {
			return numeric.One()
		}
		return numeric.Zero()
	})
	if err != nil {
		panic(err)
	}
	return g
}
