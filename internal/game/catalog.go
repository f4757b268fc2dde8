package game

import (
	"math/big"

	"rationality/internal/numeric"
)

// This file provides a small catalog of classic games used throughout the
// repository's tests, examples, and benchmarks.

// NewBimatrix builds a 2-agent game from integer payoff matrices a (row
// agent) and b (column agent) of equal shape.
func NewBimatrix(name string, a, b [][]int64) *Game {
	if len(a) == 0 || len(a) != len(b) || len(a[0]) != len(b[0]) {
		panic("game: bimatrix payoff shape mismatch")
	}
	g := MustNew(name, []int{len(a), len(a[0])})
	for i := range a {
		for j := range a[i] {
			p := Profile{i, j}
			g.SetPayoff(0, p, numeric.I(a[i][j]))
			g.SetPayoff(1, p, numeric.I(b[i][j]))
		}
	}
	return g
}

// PrisonersDilemma returns the classic Prisoner's Dilemma. Its unique pure
// Nash equilibrium is (Defect, Defect) = profile [1 1].
func PrisonersDilemma() *Game {
	return NewBimatrix("prisoners-dilemma",
		[][]int64{{3, 0}, {5, 1}},
		[][]int64{{3, 5}, {0, 1}},
	)
}

// RandomGame returns a game with the given strategy counts and payoffs drawn
// uniformly from {0, 1, ..., maxPayoff} by the supplied source. It is used by
// property tests and benchmarks; determinism comes from the caller's seed.
func RandomGame(name string, numStrategies []int, maxPayoff int64, next func(n int64) int64) *Game {
	u := func(agent int, p Profile) *big.Rat {
		return numeric.I(next(maxPayoff + 1))
	}
	g, err := FromFunc(name, numStrategies, u)
	if err != nil {
		panic(err)
	}
	return g
}
