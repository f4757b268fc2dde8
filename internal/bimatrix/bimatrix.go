// Package bimatrix implements finite 2-agent games in mixed strategies: the
// n×m payoff matrices A (row agent) and B (column agent) of §4, expected
// payoffs, mixed Nash equilibrium predicates, a support-enumeration solver
// (the PPAD-hard computation performed by the game inventor), and an exact
// zero-sum LP solver.
//
// Everything is exact rational arithmetic: the solver's output can be
// verified with equality checks, which is what the P1/P2 verifiers of the
// interactive package rely on.
package bimatrix

import (
	"fmt"
	"math/big"

	"rationality/internal/numeric"
)

// Game is a two-agent game in strategic form. The row agent has n pure
// strategies (rows) and the column agent m (columns); A and B hold their
// respective payoffs.
type Game struct {
	a, b *numeric.Matrix
}

// New builds a game from the two payoff matrices, which must be non-empty
// and of equal shape. The game keeps them: the caller must not modify them
// afterwards.
func New(a, b *numeric.Matrix) (*Game, error) {
	if a.Rows() == 0 || a.Cols() == 0 {
		return nil, fmt.Errorf("bimatrix: empty payoff matrix")
	}
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return nil, fmt.Errorf("bimatrix: A is %dx%d but B is %dx%d",
			a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	return &Game{a: a, b: b}, nil
}

// FromInts builds a game from integer payoff literals.
func FromInts(a, b [][]int64) *Game {
	g, err := New(numeric.MatrixOfInts(a), numeric.MatrixOfInts(b))
	if err != nil {
		panic(err)
	}
	return g
}

// Rows returns the number of row-agent pure strategies (n).
func (g *Game) Rows() int { return g.a.Rows() }

// Cols returns the number of column-agent pure strategies (m).
func (g *Game) Cols() int { return g.a.Cols() }

// A returns a copy of the row agent's payoff matrix.
func (g *Game) A() *numeric.Matrix { return g.a.Clone() }

// B returns a copy of the column agent's payoff matrix.
func (g *Game) B() *numeric.Matrix { return g.b.Clone() }

// Payoffs returns the game's own A and B, not copies, for reads inside a
// procedure: the caller must not modify them.
func (g *Game) Payoffs() (a, b *numeric.Matrix) { return g.a, g.b }

// Profile is a mixed strategy profile: X over the rows, Y over the columns.
type Profile struct {
	X *numeric.Vec
	Y *numeric.Vec
}

// RowValues returns A·y: entry i is the row agent's expected payoff for pure
// row i against the column mix y.
func (g *Game) RowValues(y *numeric.Vec) *numeric.Vec { return g.a.MulVec(y) }

// ColValues returns Bᵀ·x: entry j is the column agent's expected payoff for
// pure column j against the row mix x.
func (g *Game) ColValues(x *numeric.Vec) *numeric.Vec { return g.b.VecMul(x) }

// ExpectedA returns the row agent's expected payoff xᵀ·A·y.
func (g *Game) ExpectedA(p Profile) *big.Rat { return p.X.Dot(g.a.MulVec(p.Y)) }

// ExpectedB returns the column agent's expected payoff xᵀ·B·y.
func (g *Game) ExpectedB(p Profile) *big.Rat { return p.X.Dot(g.b.MulVec(p.Y)) }

// IsEquilibrium reports whether p is a mixed Nash equilibrium: every pure
// strategy in each agent's support is a best response to the opponent's mix
// (the "second Nash theorem" condition Lemma 1 relies on).
func (g *Game) IsEquilibrium(p Profile) bool {
	return p.X != nil && p.Y != nil &&
		IsEquilibriumOf(g.a.Values(), g.b.Values(), g.Rows(), g.Cols(), p.X.Values(), p.Y.Values())
}

// IsEquilibriumOf is IsEquilibrium over any Field, for the rows×cols
// payoff matrices a and b, row-major, and the mixes x and y.
func IsEquilibriumOf[T any, P numeric.Field[T]](a, b []T, rows, cols int, x, y []T) bool {
	if len(x) != rows || len(y) != cols || !numeric.Stochastic[T, P](x) || !numeric.Stochastic[T, P](y) {
		return false
	}
	rowVals := make([]T, rows) // A·y
	colVals := make([]T, cols) // Bᵀ·x
	var term T
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			P(&rowVals[i]).Add(&rowVals[i], P(&term).Mul(&a[i*cols+j], &y[j]))
			P(&colVals[j]).Add(&colVals[j], P(&term).Mul(&x[i], &b[i*cols+j]))
		}
	}
	return supportIsOptimal[T, P](x, rowVals) && supportIsOptimal[T, P](y, colVals)
}

// supportIsOptimal reports whether every index in the support of mix
// achieves the maximum of vals.
func supportIsOptimal[T any, P numeric.Field[T]](mix, vals []T) bool {
	best := P(&vals[0])
	for i := 1; i < len(vals); i++ {
		if v := P(&vals[i]); v.Cmp(best) > 0 {
			best = v
		}
	}
	for i := range mix {
		if P(&mix[i]).Sign() != 0 && P(&vals[i]).Cmp(best) != 0 {
			return false
		}
	}
	return true
}

// Equilibrium is a mixed Nash equilibrium with its value to both agents:
// LambdaRow = λ1 and LambdaCol = λ2 in the paper's notation.
type Equilibrium struct {
	Profile
	LambdaRow *big.Rat
	LambdaCol *big.Rat
}

// newEquilibrium packages a verified profile with its expected payoffs.
func (g *Game) newEquilibrium(p Profile) *Equilibrium {
	return &Equilibrium{
		Profile:   p,
		LambdaRow: g.ExpectedA(p),
		LambdaCol: g.ExpectedB(p),
	}
}
