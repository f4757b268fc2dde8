package game

import (
	"fmt"
	"math/big"

	"rationality/internal/numeric"
)

// Correlated equilibria (Aumann [1], which the paper contrasts with the
// rationality authority: a correlation device is TRUSTED, the authority is
// not). A correlated equilibrium is a distribution over pure profiles such
// that, after being told its recommended strategy, no agent gains by
// deviating. Verifying one is a set of linear inequality checks —
// polynomial in the profile count — and finding one is a linear program,
// both of which exercise this repository's exact LP machinery.

// CorrelatedDistribution maps profile index (the game's lexicographic
// order) to probability. Use NewCorrelatedDistribution to build one from
// explicit (profile, probability) pairs.
type CorrelatedDistribution struct {
	probs []*big.Rat // by profile index
}

// NewCorrelatedDistribution builds a distribution; unspecified profiles get
// probability zero. It validates stochasticity.
func NewCorrelatedDistribution(g *Game, entries map[string]*big.Rat) (*CorrelatedDistribution, error) {
	d := &CorrelatedDistribution{probs: make([]*big.Rat, g.NumProfiles())}
	for i := range d.probs {
		d.probs[i] = new(big.Rat)
	}
	remaining := len(entries)
	g.ForEachProfile(func(p Profile) bool {
		if v, ok := entries[p.String()]; ok {
			d.probs[g.index(p)].Set(v)
			remaining--
		}
		return true
	})
	if remaining != 0 {
		return nil, fmt.Errorf("game: %d distribution entries name profiles outside the game", remaining)
	}
	total := new(big.Rat)
	for _, v := range d.probs {
		if v.Sign() < 0 {
			return nil, fmt.Errorf("game: negative probability in correlated distribution")
		}
		total.Add(total, v)
	}
	if total.Cmp(numeric.One()) != 0 {
		return nil, fmt.Errorf("game: correlated distribution sums to %s, want 1", total.RatString())
	}
	return d, nil
}

// Prob returns the probability of profile p.
func (d *CorrelatedDistribution) Prob(g *Game, p Profile) *big.Rat {
	if !g.ValidProfile(p) {
		panic("game: Prob on invalid profile")
	}
	return numeric.Copy(d.probs[g.index(p)])
}

// IsCorrelatedEquilibrium checks Aumann's obedience constraints exactly:
// for every agent i and every pair of strategies (r, t),
//
//	Σ_{p : p[i]=r} π(p)·(ui(p) − ui(p with i→t)) >= 0,
//
// i.e. an agent recommended r never gains in expectation by playing t
// instead.
func (g *Game) IsCorrelatedEquilibrium(d *CorrelatedDistribution) bool {
	if d == nil || len(d.probs) != g.NumProfiles() {
		return false
	}
	gain, diff := new(big.Rat), new(big.Rat)
	for i := 0; i < g.NumAgents(); i++ {
		for r := 0; r < g.NumStrategies(i); r++ {
			for t := 0; t < g.NumStrategies(i); t++ {
				if r == t {
					continue
				}
				gain.SetInt64(0)
				shift := (t - r) * g.strides[i]
				g.forEachIndexed(func(idx int, p Profile) bool {
					if p[i] != r {
						return true
					}
					w := d.probs[idx]
					if w.Sign() == 0 {
						return true
					}
					diff.Sub(g.u(i, idx), g.u(i, idx+shift))
					gain.Add(gain, diff.Mul(diff, w))
					return true
				})
				if gain.Sign() < 0 {
					return false
				}
			}
		}
	}
	return true
}

// ExpectedPayoffCorrelated returns agent i's expected utility under the
// distribution.
func (g *Game) ExpectedPayoffCorrelated(i int, d *CorrelatedDistribution) *big.Rat {
	total, term := new(big.Rat), new(big.Rat)
	for idx, w := range d.probs {
		if w.Sign() != 0 {
			total.Add(total, term.Mul(w, g.u(i, idx)))
		}
	}
	return total
}

// SolveCorrelatedEquilibrium finds the correlated equilibrium maximizing
// utilitarian social welfare (the sum of all agents' expected payoffs) by
// one exact LP over the profile probabilities. Unlike Nash equilibria,
// this is polynomial in the profile count — the classic tractability gap
// correlation buys.
func (g *Game) SolveCorrelatedEquilibrium() (*CorrelatedDistribution, error) {
	nProfiles := g.NumProfiles()
	lp := &numeric.LP{NumVars: nProfiles, Objective: numeric.NewVec(nProfiles)}

	// Objective: social welfare.
	welfare := new(big.Rat)
	for idx := 0; idx < nProfiles; idx++ {
		welfare.SetInt64(0)
		for i := 0; i < g.NumAgents(); i++ {
			welfare.Add(welfare, g.u(i, idx))
		}
		lp.Objective.SetAt(idx, welfare)
	}

	// Obedience constraints.
	for i := 0; i < g.NumAgents(); i++ {
		for r := 0; r < g.NumStrategies(i); r++ {
			for t := 0; t < g.NumStrategies(i); t++ {
				if r == t {
					continue
				}
				row := numeric.NewVec(nProfiles)
				shift := (t - r) * g.strides[i]
				g.forEachIndexed(func(idx int, p Profile) bool {
					if p[i] == r {
						row.SetAt(idx, numeric.Sub(g.u(i, idx), g.u(i, idx+shift)))
					}
					return true
				})
				lp.AddGE(row, numeric.Zero())
			}
		}
	}

	// Normalization.
	ones := numeric.NewVec(nProfiles)
	for j := 0; j < nProfiles; j++ {
		ones.SetAt(j, numeric.One())
	}
	lp.AddEQ(ones, numeric.One())

	res, err := numeric.SolveLP(lp)
	if err != nil {
		return nil, err
	}
	if res.Status != numeric.Optimal {
		// Cannot happen: every Nash equilibrium (which exists in mixed
		// strategies) induces a feasible correlated distribution, and the
		// simplex over a probability simplex is bounded.
		return nil, fmt.Errorf("game: correlated LP status %v", res.Status)
	}
	d := &CorrelatedDistribution{probs: make([]*big.Rat, nProfiles)}
	for j := 0; j < nProfiles; j++ {
		d.probs[j] = res.X.At(j)
	}
	return d, nil
}
