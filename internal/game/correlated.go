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
	probs []big.Rat // by profile index
}

// NewCorrelatedDistribution builds a distribution; unspecified profiles get
// probability zero. It validates stochasticity.
func NewCorrelatedDistribution(g *Game, entries map[string]*big.Rat) (*CorrelatedDistribution, error) {
	d := &CorrelatedDistribution{probs: make([]big.Rat, g.NumProfiles())}
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
	if err := CheckDistribution(d.probs); err != nil {
		return nil, err
	}
	return d, nil
}

// CheckDistribution is NewCorrelatedDistribution's check of the
// probabilities, indexed by profile, over any Field: none negative, and
// summing to 1.
func CheckDistribution[T any, P numeric.Field[T]](probs []T) error {
	var total, one T
	for i := range probs {
		if P(&probs[i]).Sign() < 0 {
			return fmt.Errorf("game: negative probability in correlated distribution")
		}
		P(&total).Add(&total, &probs[i])
	}
	if P(&total).Cmp(P(&one).SetInt64(1)) != 0 {
		return fmt.Errorf("game: correlated distribution sums to %s, want 1", P(&total).RatString())
	}
	return nil
}

// Prob returns the probability of profile p.
func (d *CorrelatedDistribution) Prob(g *Game, p Profile) *big.Rat {
	if !g.ValidProfile(p) {
		panic("game: Prob on invalid profile")
	}
	return numeric.Copy(&d.probs[g.index(p)])
}

// IsCorrelatedEquilibrium checks Aumann's obedience constraints exactly:
// for every agent i and every pair of strategies (r, t),
//
//	Σ_{p : p[i]=r} π(p)·(ui(p) − ui(p with i→t)) >= 0,
//
// i.e. an agent recommended r never gains in expectation by playing t
// instead.
func (g *Game) IsCorrelatedEquilibrium(d *CorrelatedDistribution) bool {
	return d != nil && len(d.probs) == g.NumProfiles() && obedient(&g.shape, g.payoffs, d.probs)
}

// IsCorrelatedEquilibrium is Game.IsCorrelatedEquilibrium on machine
// words, for probabilities indexed by profile.
func (w *Words) IsCorrelatedEquilibrium(probs []numeric.Q) bool {
	return obedient(&w.shape, w.payoffs, probs)
}

func obedient[T any, P numeric.Field[T]](g *shape, table []T, probs []T) bool {
	var gain, diff T
	for i := 0; i < g.NumAgents(); i++ {
		u := table[i*g.numProfiles : (i+1)*g.numProfiles]
		for r := 0; r < g.NumStrategies(i); r++ {
			for t := 0; t < g.NumStrategies(i); t++ {
				if r == t {
					continue
				}
				P(&gain).SetInt64(0)
				shift := (t - r) * g.strides[i]
				g.forEachIndexed(func(idx int, p Profile) bool {
					if p[i] != r || P(&probs[idx]).Sign() == 0 {
						return true
					}
					P(&diff).Sub(&u[idx], &u[idx+shift])
					P(&gain).Add(&gain, P(&diff).Mul(&diff, &probs[idx]))
					return true
				})
				if P(&gain).Sign() < 0 {
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
	v := expected(&g.shape, g.payoffs, i, d.probs)
	return &v
}

// ExpectedPayoffCorrelated is Game.ExpectedPayoffCorrelated on machine
// words.
func (w *Words) ExpectedPayoffCorrelated(i int, probs []numeric.Q) numeric.Q {
	return expected(&w.shape, w.payoffs, i, probs)
}

func expected[T any, P numeric.Field[T]](g *shape, table []T, i int, probs []T) (total T) {
	var term T
	for idx := range probs {
		if P(&probs[idx]).Sign() != 0 {
			P(&total).Add(&total, P(&term).Mul(&probs[idx], &table[i*g.numProfiles+idx]))
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
	d := &CorrelatedDistribution{probs: make([]big.Rat, nProfiles)}
	for j := 0; j < nProfiles; j++ {
		d.probs[j].Set(res.X.Ref(j))
	}
	return d, nil
}
