package game

import (
	"math/big"
	"math/rand"
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
			if !numeric.Eq(expectedPayoff(g, i, mp), g.Payoff(i, p)) {
				t.Fatalf("expected payoff of degenerate mix differs at %v agent %d", p, i)
			}
		}
	}
}

func TestExpectedPayoffUniformMatchingPennies(t *testing.T) {
	g := matchingPennies()
	mp := uniformMixed(g)
	for i := 0; i < 2; i++ {
		if got := expectedPayoff(g, i, mp); got.Sign() != 0 {
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
		if got := expectedPayoffPureDeviation(g, 0, si, mp); got.Sign() != 0 {
			t.Errorf("deviation to %d = %s, want 0", si, got.RatString())
		}
	}
	// Against pure heads, matching (row plays heads) yields +1.
	pure := pureAsMixed(g, Profile{0, 0})
	if got := expectedPayoffPureDeviation(g, 0, 0, pure); got.RatString() != "1" {
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
	for _, mp := range []MixedProfile{
		{numeric.VecOfInts(1)},
		{numeric.VecOfInts(1, 0), numeric.VecOfInts(1)},
		{numeric.VecOfInts(1, 0), nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic on mis-shaped mixed profile %v", mp)
				}
			}()
			g.PureDeviationPayoffs(0, mp)
		}()
	}
}

// expectedPayoff is the textbook definition the one-pass deviation payoffs
// are checked against: Σ_profiles Π_k mp[k](p[k]) · ui(p).
func expectedPayoff(g *Game, i int, mp MixedProfile) *big.Rat {
	if !g.ValidMixed(mp) {
		panic("game: expectedPayoff on invalid mixed profile")
	}
	total := new(big.Rat)
	weight := new(big.Rat)
	g.ForEachProfile(func(p Profile) bool {
		weight.SetInt64(1)
		for k, s := range p {
			prob := mp[k].At(s)
			if prob.Sign() == 0 {
				weight.SetInt64(0)
				break
			}
			weight.Mul(weight, prob)
		}
		if weight.Sign() != 0 {
			weight.Mul(weight, g.Payoff(i, p))
			total.Add(total, weight)
		}
		return true
	})
	return total
}

// expectedPayoffPureDeviation is expectedPayoff with agent i's mix replaced
// by pure strategy si.
func expectedPayoffPureDeviation(g *Game, i, si int, mp MixedProfile) *big.Rat {
	dev := make(MixedProfile, len(mp))
	copy(dev, mp)
	pure := numeric.NewVec(g.NumStrategies(i))
	pure.SetAt(si, numeric.One())
	dev[i] = pure
	return expectedPayoff(g, i, dev)
}

// TestPureDeviationPayoffsMatchExpectedPayoffs holds the one-pass deviation
// payoffs to the per-strategy definition, and their mp[i]-weighted sum to
// the expected payoff, over random games and random mixed profiles with
// zeros and mixed denominators.
func TestPureDeviationPayoffsMatchExpectedPayoffs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		counts := make([]int, 1+rng.Intn(4))
		for i := range counts {
			counts[i] = 1 + rng.Intn(3)
		}
		g, err := FromFunc("random", counts, func(int, Profile) *big.Rat {
			return numeric.R(rng.Int63n(41)-20, 1+rng.Int63n(6))
		})
		if err != nil {
			t.Fatal(err)
		}
		mp := make(MixedProfile, len(counts))
		for k, n := range counts {
			w := make([]int64, n)
			var sum int64
			for s := range w {
				if rng.Intn(3) > 0 {
					w[s] = 1 + rng.Int63n(5)
				}
				sum += w[s]
			}
			if sum == 0 {
				w[0], sum = 1, 1
			}
			v := numeric.NewVec(n)
			for s := range w {
				v.SetAt(s, numeric.R(w[s], sum))
			}
			mp[k] = v
		}
		for i := range counts {
			dev := g.PureDeviationPayoffs(i, mp)
			value := new(big.Rat)
			for s := range dev {
				d := &dev[s]
				if want := expectedPayoffPureDeviation(g, i, s, mp); !numeric.Eq(d, want) {
					t.Fatalf("trial %d agent %d strategy %d: one pass %s, definition %s", trial, i, s, d.RatString(), want.RatString())
				}
				value.Add(value, numeric.Mul(mp[i].At(s), d))
			}
			if want := expectedPayoff(g, i, mp); !numeric.Eq(value, want) {
				t.Fatalf("trial %d agent %d: Σ mp·dev = %s, expected payoff %s", trial, i, value.RatString(), want.RatString())
			}
		}
	}
}
