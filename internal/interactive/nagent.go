package interactive

import (
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
	if len(advice.Supports) != g.NumAgents() || len(advice.Probs) != g.NumAgents() {
		return nil, rejectP("Pn", "advice covers %d agents; game has %d",
			len(advice.Supports), g.NumAgents())
	}
	if !g.ValidMixed(advice.Probs) {
		return nil, rejectP("Pn", "probabilities are not a valid mixed profile")
	}
	for i, s := range advice.Supports {
		if err := checkSupport(s, g.NumStrategies(i)); err != nil {
			return nil, rejectP("Pn", "agent %d support: %v", i, err)
		}
		actual := advice.Probs[i].Support()
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

	values := make([]*numeric.Rat, g.NumAgents())
	term := new(numeric.Rat)
	for i := 0; i < g.NumAgents(); i++ {
		// One pass yields every pure strategy's payoff against the others'
		// mix; the equilibrium value is their mix-weighted sum.
		devs := g.PureDeviationPayoffs(i, advice.Probs)
		value := new(numeric.Rat)
		for si, dev := range devs {
			value.Add(value, term.Mul(advice.Probs[i].Ref(si), dev))
		}
		inSupport := make([]bool, len(devs))
		for _, s := range advice.Supports[i] {
			inSupport[s] = true
		}
		for si, dev := range devs {
			if inSupport[si] && !numeric.Eq(dev, value) {
				return nil, rejectP("Pn", "agent %d: in-support strategy %d earns %s, not the equilibrium value %s",
					i, si, dev.RatString(), value.RatString())
			}
			if numeric.Gt(dev, value) {
				return nil, rejectP("Pn", "agent %d: strategy %d earns %s > equilibrium value %s",
					i, si, dev.RatString(), value.RatString())
			}
		}
		values[i] = value
	}
	return values, nil
}
