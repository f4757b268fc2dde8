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

// PureDeviationPayoffs returns, for every pure strategy s of agent i, agent
// i's expected utility when it plays s while every other agent k plays mp[k]:
// Σ over profiles with p[i] = s of Π_{k≠i} mp[k](p[k]) · ui(p). One pass over
// the profile space yields all of them; mp[i] is not read, and agent i's
// expected utility under mp is Σ_s mp[i](s)·dev[s]. The pass is exponential
// in the number of agents — the interactive P1/P2 protocols exist to avoid
// it for 2-agent games. It panics unless mp has one vector of the right
// dimension per agent.
func (g *Game) PureDeviationPayoffs(i int, mp MixedProfile) []*big.Rat {
	if len(mp) != g.NumAgents() {
		panic("game: PureDeviationPayoffs on a mixed profile of the wrong shape")
	}
	for k, v := range mp {
		if v == nil || v.Len() != g.NumStrategies(k) {
			panic("game: PureDeviationPayoffs on a mixed profile of the wrong shape")
		}
	}
	sums := make([]big.Rat, g.NumStrategies(i))
	weight := new(big.Rat)
	g.forEachIndexed(func(idx int, p Profile) bool {
		weight.SetInt64(1)
		for k, s := range p {
			if k == i {
				continue
			}
			prob := mp[k].Ref(s)
			if prob.Sign() == 0 {
				return true
			}
			weight.Mul(weight, prob)
		}
		sums[p[i]].Add(&sums[p[i]], weight.Mul(weight, g.u(i, idx)))
		return true
	})
	dev := make([]*big.Rat, len(sums))
	for s := range sums {
		dev[s] = &sums[s]
	}
	return dev
}
