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

// Valid reports whether the profile's dimensions match the game and both
// strategies are probability vectors.
func (g *Game) Valid(p Profile) bool {
	return p.X != nil && p.Y != nil &&
		p.X.Len() == g.Rows() && p.Y.Len() == g.Cols() &&
		p.X.IsStochastic() && p.Y.IsStochastic()
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
	if !g.Valid(p) {
		return false
	}
	rowVals := g.RowValues(p.Y)
	if !supportIsOptimal(p.X, rowVals) {
		return false
	}
	colVals := g.ColValues(p.X)
	return supportIsOptimal(p.Y, colVals)
}

// supportIsOptimal reports whether every index in the support of mix
// achieves the maximum of vals.
func supportIsOptimal(mix, vals *numeric.Vec) bool {
	best := vals.Ref(0)
	for i := 1; i < vals.Len(); i++ {
		if v := vals.Ref(i); numeric.Gt(v, best) {
			best = v
		}
	}
	for _, i := range mix.Support() {
		if !numeric.Eq(vals.Ref(i), best) {
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
