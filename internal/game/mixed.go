package game

import (
	"math/big"

	"rationality/internal/numeric"
)

// MixedProfile assigns each agent a probability distribution over its
// strategies. MixedProfile[i] must have length NumStrategies(i) and be
// stochastic for the profile to be valid.
type MixedProfile []*numeric.Vec

// ValidMixed reports whether mp has one stochastic vector of the right
// dimension per agent.
func (g *Game) ValidMixed(mp MixedProfile) bool {
	if len(mp) != g.NumAgents() {
		return false
	}
	for i, v := range mp {
		if v == nil || v.Len() != g.NumStrategies(i) || !v.IsStochastic() {
			return false
		}
	}
	return true
}

// ExpectedPayoff returns agent i's expected utility under the mixed profile:
// Σ_profiles Π_k mp[k](p[k]) · ui(p). The sum enumerates the full profile
// space, so it is exponential in the number of agents — acceptable for the
// small games this repository verifies directly; the interactive P1/P2
// protocols exist precisely to avoid this cost for 2-agent games.
func (g *Game) ExpectedPayoff(i int, mp MixedProfile) *big.Rat {
	if !g.ValidMixed(mp) {
		panic("game: ExpectedPayoff on invalid mixed profile")
	}
	return g.expectedPayoff(i, mp)
}

func (g *Game) expectedPayoff(i int, mp MixedProfile) *big.Rat {
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
			weight.Mul(weight, g.payoffs[i][g.index(p)])
			total.Add(total, weight)
		}
		return true
	})
	return total
}

// ExpectedPayoffPureDeviation returns agent i's expected utility when it
// deviates to pure strategy si while everyone else plays mp.
func (g *Game) ExpectedPayoffPureDeviation(i, si int, mp MixedProfile) *big.Rat {
	if !g.ValidMixed(mp) {
		panic("game: ExpectedPayoffPureDeviation on invalid mixed profile")
	}
	if si < 0 || si >= g.NumStrategies(i) {
		panic("game: deviation strategy out of range")
	}
	dev := make(MixedProfile, len(mp))
	copy(dev, mp)
	pure := numeric.NewVec(g.NumStrategies(i))
	pure.SetAt(si, numeric.One())
	dev[i] = pure
	return g.expectedPayoff(i, dev)
}
