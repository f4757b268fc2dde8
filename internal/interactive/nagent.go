package interactive

import (
	"math/big"

	"rationality/internal/game"
	"rationality/internal/numeric"
)

// NAgentAdvice is Remark 1's generalization of P1 to n agents: the prover
// provides the support sets S1, ..., Sn (and, to keep each agent's
// verification polynomial in the game size rather than requiring a
// polynomial-system solver, the Nash probabilities realizing them).
type NAgentAdvice struct {
	Supports [][]int
	Probs    game.MixedProfile
}

// BuildNAgentAdvice packages a known mixed equilibrium of an n-agent game.
func BuildNAgentAdvice(g *game.Game, mp game.MixedProfile) (*NAgentAdvice, error) {
	if !g.ValidMixed(mp) {
		return nil, rejectP("Pn", "profile is not a valid mixed profile for the game")
	}
	supports := make([][]int, g.NumAgents())
	probs := make(game.MixedProfile, g.NumAgents())
	for i, v := range mp {
		supports[i] = v.Support()
		probs[i] = v.Clone()
	}
	return &NAgentAdvice{Supports: supports, Probs: probs}, nil
}

// VerifyNAgent checks Remark 1's advice: the probabilities realize the
// claimed supports, every in-support pure strategy of every agent attains
// that agent's equilibrium value, and no strategy beats it. On success it
// returns the per-agent equilibrium values.
func VerifyNAgent(g *game.Game, advice *NAgentAdvice) ([]*numeric.Rat, error) {
	if advice == nil {
		return nil, rejectP("Pn", "nil advice")
	}
	probs := make([][]big.Rat, len(advice.Probs))
	for i, v := range advice.Probs {
		if v != nil {
			probs[i] = v.Values()
		}
	}
	vals, err := verifyNAgent(g.StrategyCounts(), advice.Supports, probs, func(i int) []big.Rat {
		return g.PureDeviationPayoffs(i, advice.Probs)
	})
	if err != nil {
		return nil, err
	}
	values := make([]*numeric.Rat, len(vals))
	for i := range vals {
		values[i] = &vals[i]
	}
	return values, nil
}

// VerifyNAgentWords is VerifyNAgent on machine words, for a game and
// probabilities whose every value fits; run it under numeric.Fits.
func VerifyNAgentWords(g *game.Words, supports [][]int, probs [][]numeric.Q) ([]numeric.Q, error) {
	return verifyNAgent(g.StrategyCounts(), supports, probs, func(i int) []numeric.Q {
		return g.PureDeviationPayoffs(i, probs)
	})
}

// verifyNAgent is VerifyNAgent over any Field, for a game with the given
// strategy counts whose agent i's pure-deviation payoffs devs returns.
func verifyNAgent[T any, P numeric.Field[T]](counts []int, supports [][]int, probs [][]T, devs func(i int) []T) ([]T, error) {
	if len(supports) != len(counts) || len(probs) != len(counts) {
		return nil, rejectP("Pn", "advice covers %d agents; game has %d", len(supports), len(counts))
	}
	for i, v := range probs {
		if len(v) != counts[i] || !numeric.Stochastic[T, P](v) {
			return nil, rejectP("Pn", "probabilities are not a valid mixed profile")
		}
	}
	for i, s := range supports {
		if err := checkSupport(s, counts[i]); err != nil {
			return nil, rejectP("Pn", "agent %d support: %v", i, err)
		}
		actual := numeric.Support[T, P](probs[i])
		if len(actual) != len(s) {
			return nil, rejectP("Pn", "agent %d: support size %d does not match probabilities (%d non-zero)",
				i, len(s), len(actual))
		}
		claimed := make(map[int]bool, len(s))
		for _, idx := range s {
			claimed[idx] = true
		}
		for _, idx := range actual {
			if !claimed[idx] {
				return nil, rejectP("Pn", "agent %d: probability mass on strategy %d outside the claimed support", i, idx)
			}
		}
	}

	values := make([]T, len(counts))
	var term T
	for i := range counts {
		// One pass yields every pure strategy's payoff against the others'
		// mix; the equilibrium value is their mix-weighted sum.
		devs := devs(i)
		value := P(&values[i])
		for si := range devs {
			value.Add(value, P(&term).Mul(&probs[i][si], &devs[si]))
		}
		inSupport := make([]bool, len(devs))
		for _, s := range supports[i] {
			inSupport[s] = true
		}
		for si := range devs {
			dev := P(&devs[si])
			if inSupport[si] && dev.Cmp(value) != 0 {
				return nil, rejectP("Pn", "agent %d: in-support strategy %d earns %s, not the equilibrium value %s",
					i, si, dev.RatString(), value.RatString())
			}
			if dev.Cmp(value) > 0 {
				return nil, rejectP("Pn", "agent %d: strategy %d earns %s > equilibrium value %s",
					i, si, dev.RatString(), value.RatString())
			}
		}
	}
	return values, nil
}
