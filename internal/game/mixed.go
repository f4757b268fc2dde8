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
func (g *Game) PureDeviationPayoffs(i int, mp MixedProfile) []big.Rat {
	if len(mp) != g.NumAgents() {
		panic("game: PureDeviationPayoffs on a mixed profile of the wrong shape")
	}
	mix := make([][]big.Rat, len(mp))
	for k, v := range mp {
		if v == nil || v.Len() != g.NumStrategies(k) {
			panic("game: PureDeviationPayoffs on a mixed profile of the wrong shape")
		}
		mix[k] = v.Values()
	}
	return deviations(&g.shape, g.payoffs, i, mix)
}

// PureDeviationPayoffs is Game.PureDeviationPayoffs on machine words, for
// a mix the caller has checked has one vector of the right length per
// agent.
func (w *Words) PureDeviationPayoffs(i int, mix [][]numeric.Q) []numeric.Q {
	return deviations(&w.shape, w.payoffs, i, mix)
}

// deviations is PureDeviationPayoffs over a payoff table of any Field.
func deviations[T any, P numeric.Field[T]](g *shape, table []T, i int, mix [][]T) []T {
	sums := make([]T, g.numStrategies[i])
	var weight T
	w := P(&weight)
	g.forEachIndexed(func(idx int, p Profile) bool {
		w.SetInt64(1)
		for k, s := range p {
			if k == i {
				continue
			}
			prob := P(&mix[k][s])
			if prob.Sign() == 0 {
				return true
			}
			w.Mul(w, prob)
		}
		P(&sums[p[i]]).Add(&sums[p[i]], w.Mul(w, &table[i*g.numProfiles+idx]))
		return true
	})
	return sums
}
