package bimatrix

import (
	"errors"
	"fmt"

	"rationality/internal/numeric"
)

// ErrNoEquilibrium is returned when support enumeration finds no equilibrium.
// By Nash's theorem this cannot happen for a correct implementation on a
// finite game; it is kept as a defensive signal rather than a panic.
var ErrNoEquilibrium = errors.New("bimatrix: no equilibrium found")

// FindEquilibrium computes one mixed Nash equilibrium by support
// enumeration: for every pair of candidate supports (ordered by total size,
// so pure equilibria are found first) it solves the indifference system and
// checks feasibility. This is the inventor's intractable-in-general
// computation — worst case it inspects (2ⁿ−1)(2ᵐ−1) support pairs.
func (g *Game) FindEquilibrium() (*Equilibrium, error) {
	var found *Equilibrium
	g.enumerateSupportEquilibria(func(e *Equilibrium) bool {
		found = e
		return false
	})
	if found == nil {
		return nil, ErrNoEquilibrium
	}
	return found, nil
}

// enumerateSupportEquilibria invokes fn for each support pair admitting an
// equilibrium until fn returns false.
func (g *Game) enumerateSupportEquilibria(fn func(*Equilibrium) bool) {
	n, m := g.Rows(), g.Cols()
	rowSupports := subsetsBySize(n)
	colSupports := subsetsBySize(m)
	// Order by total support size so small (pure) equilibria come first.
	for total := 2; total <= n+m; total++ {
		for _, s1 := range rowSupports {
			if len(s1) >= total {
				continue
			}
			s2Size := total - len(s1)
			if s2Size < 1 || s2Size > m {
				continue
			}
			for _, s2 := range colSupports {
				if len(s2) != s2Size {
					continue
				}
				e, err := g.SolveForSupports(s1, s2)
				if err != nil {
					continue
				}
				if !fn(e) {
					return
				}
			}
		}
	}
}

// SolveForSupports attempts to find an equilibrium whose supports are
// contained in (s1, s2). It solves, by exact LP feasibility, the
// indifference-and-dominance system of the paper's Fig. 3 for both agents:
//
//	y_j >= 0 (j ∈ s2), Σ y_j = 1, (A·y)_i = λ1 for i ∈ s1, (A·y)_i <= λ1 otherwise,
//	x_i >= 0 (i ∈ s1), Σ x_i = 1, (Bᵀ·x)_j = λ2 for j ∈ s2, (Bᵀ·x)_j <= λ2 otherwise.
//
// The solution is then re-verified with IsEquilibrium before being returned,
// so a caller can trust the result unconditionally.
func (g *Game) SolveForSupports(s1, s2 []int) (*Equilibrium, error) {
	if err := validSupport(s1, g.Rows()); err != nil {
		return nil, fmt.Errorf("bimatrix: row support: %w", err)
	}
	if err := validSupport(s2, g.Cols()); err != nil {
		return nil, fmt.Errorf("bimatrix: column support: %w", err)
	}

	y, _, err := SolveSide(g.a, s1, s2, false)
	if err != nil {
		return nil, err
	}
	x, _, err := SolveSide(g.b, s2, s1, true)
	if err != nil {
		return nil, err
	}
	p := Profile{X: x, Y: y}
	if !g.IsEquilibrium(p) {
		return nil, ErrNoEquilibrium
	}
	return g.newEquilibrium(p), nil
}

// SolveSide finds a mix for the "responding" agent that makes the
// "indifferent" agent indifferent across its support eqSupport and weakly
// worse off it, by exact LP feasibility, and returns it with that agent's
// value λ. For the row agent's indifference (transposed == false) the
// unknown is the column mix y over mixSupport and payoffs come from matrix
// rows; for the column agent's indifference (transposed == true) the
// unknown is the row mix x and payoffs come from matrix columns. It returns
// ErrNoEquilibrium when no such mix exists.
func SolveSide(payoff *numeric.Matrix, eqSupport, mixSupport []int, transposed bool) (*numeric.Vec, *numeric.Rat, error) {
	dim := payoff.Cols()
	if transposed {
		dim = payoff.Rows()
	}
	total := payoff.Rows()
	if transposed {
		total = payoff.Cols()
	}

	// LP variables: one probability per mixSupport entry, then λ⁺, λ⁻
	// (λ = λ⁺ − λ⁻ is free).
	k := len(mixSupport)
	lp := &numeric.LP{NumVars: k + 2}

	coeff := func(strat, mixIdx int) *numeric.Rat {
		if transposed {
			return payoff.Ref(mixSupport[mixIdx], strat)
		}
		return payoff.Ref(strat, mixSupport[mixIdx])
	}

	inEq := make(map[int]bool, len(eqSupport))
	for _, i := range eqSupport {
		inEq[i] = true
	}

	for strat := 0; strat < total; strat++ {
		row := numeric.NewVec(k + 2)
		for t := 0; t < k; t++ {
			row.SetAt(t, coeff(strat, t))
		}
		row.SetAt(k, numeric.I(-1))   // −λ⁺
		row.SetAt(k+1, numeric.One()) // +λ⁻
		if inEq[strat] {
			lp.AddEQ(row, numeric.Zero())
		} else {
			lp.AddLE(row, numeric.Zero())
		}
	}

	// Probabilities sum to one.
	sumRow := numeric.NewVec(k + 2)
	for t := 0; t < k; t++ {
		sumRow.SetAt(t, numeric.One())
	}
	lp.AddEQ(sumRow, numeric.One())

	res, err := numeric.SolveLP(lp)
	if err != nil {
		return nil, nil, err
	}
	if res.Status != numeric.Optimal {
		return nil, nil, ErrNoEquilibrium
	}

	mix := numeric.NewVec(dim)
	for t, idx := range mixSupport {
		mix.SetAt(idx, res.X.Ref(t))
	}
	return mix, numeric.Sub(res.X.Ref(k), res.X.Ref(k+1)), nil
}

func validSupport(s []int, limit int) error {
	if len(s) == 0 {
		return errors.New("empty support")
	}
	seen := make(map[int]bool, len(s))
	for _, i := range s {
		if i < 0 || i >= limit {
			return fmt.Errorf("index %d out of range [0, %d)", i, limit)
		}
		if seen[i] {
			return fmt.Errorf("index %d repeated", i)
		}
		seen[i] = true
	}
	return nil
}

// subsetsBySize returns all non-empty subsets of {0..n-1} grouped in
// increasing-size, lexicographic order.
func subsetsBySize(n int) [][]int {
	var out [][]int
	for size := 1; size <= n; size++ {
		combs(n, size, func(c []int) {
			cc := make([]int, len(c))
			copy(cc, c)
			out = append(out, cc)
		})
	}
	return out
}

// combs enumerates the size-k subsets of {0..n-1} in lexicographic order.
func combs(n, k int, fn func([]int)) {
	c := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			fn(c)
			return
		}
		for i := start; i < n; i++ {
			c[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}
