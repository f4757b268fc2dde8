package bimatrix

import (
	"math/rand"
	"testing"

	"rationality/internal/numeric"
)

// fig5 is the paper's Fig. 5 game:
//
//	     C     D
//	A  1,1   1,1
//	B  0,1   2,0
func fig5() *Game {
	return FromInts(
		[][]int64{{1, 1}, {0, 2}},
		[][]int64{{1, 1}, {1, 0}},
	)
}

func matchingPennies() *Game {
	return FromInts(
		[][]int64{{1, -1}, {-1, 1}},
		[][]int64{{-1, 1}, {1, -1}},
	)
}

func prisonersDilemma() *Game {
	return FromInts(
		[][]int64{{3, 0}, {5, 1}},
		[][]int64{{3, 5}, {0, 1}},
	)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(numeric.NewMatrix(0, 0), numeric.NewMatrix(0, 0)); err == nil {
		t.Error("empty matrices accepted")
	}
	if _, err := New(numeric.NewMatrix(2, 2), numeric.NewMatrix(2, 3)); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestAccessors(t *testing.T) {
	g := fig5()
	if g.Rows() != 2 || g.Cols() != 2 {
		t.Fatalf("shape %dx%d", g.Rows(), g.Cols())
	}
	if g.A().At(1, 1).RatString() != "2" || g.B().At(1, 1).RatString() != "0" {
		t.Error("payoff accessors wrong")
	}
	// A() returns a copy.
	a := g.A()
	a.SetAt(0, 0, numeric.I(99))
	if g.A().At(0, 0).RatString() != "1" {
		t.Error("A() leaked internal state")
	}
}

func TestExpectedPayoffs(t *testing.T) {
	g := matchingPennies()
	uniform := numeric.VecOf(numeric.R(1, 2), numeric.R(1, 2))
	p := Profile{X: uniform, Y: uniform.Clone()}
	if got := g.ExpectedA(p); got.Sign() != 0 {
		t.Errorf("ExpectedA = %s, want 0", got.RatString())
	}
	if got := g.ExpectedB(p); got.Sign() != 0 {
		t.Errorf("ExpectedB = %s, want 0", got.RatString())
	}
}

func TestRowColValues(t *testing.T) {
	g := fig5()
	// Against pure C (y = (1, 0)): row values are (1, 0).
	y := numeric.VecOfInts(1, 0)
	if got := g.RowValues(y); got.String() != "(1, 0)" {
		t.Errorf("RowValues = %s", got)
	}
	// Against pure A (x = (1, 0)): column values are (1, 1).
	x := numeric.VecOfInts(1, 0)
	if got := g.ColValues(x); got.String() != "(1, 1)" {
		t.Errorf("ColValues = %s", got)
	}
}

func TestIsEquilibrium(t *testing.T) {
	g := matchingPennies()
	half := numeric.R(1, 2)
	uniform := numeric.VecOf(half, half)
	if !g.IsEquilibrium(Profile{X: uniform, Y: uniform.Clone()}) {
		t.Error("uniform profile should be the MP equilibrium")
	}
	pureHeads := numeric.VecOfInts(1, 0)
	if g.IsEquilibrium(Profile{X: pureHeads, Y: pureHeads.Clone()}) {
		t.Error("pure profile is not an MP equilibrium")
	}
	// Invalid profiles are never equilibria.
	if g.IsEquilibrium(Profile{X: numeric.VecOfInts(1), Y: uniform}) {
		t.Error("wrong-dimension profile accepted")
	}
	if g.IsEquilibrium(Profile{X: numeric.VecOfInts(2, -1), Y: uniform}) {
		t.Error("non-stochastic profile accepted")
	}
	if g.IsEquilibrium(Profile{}) {
		t.Error("nil profile accepted")
	}
}

func TestFindEquilibriumMatchingPennies(t *testing.T) {
	g := matchingPennies()
	e, err := g.FindEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	half := numeric.R(1, 2)
	want := numeric.VecOf(half, half)
	if e.X.String() != want.String() || e.Y.String() != want.String() {
		t.Errorf("equilibrium = (%s, %s), want uniform", e.X, e.Y)
	}
	if e.LambdaRow.Sign() != 0 || e.LambdaCol.Sign() != 0 {
		t.Errorf("values = (%s, %s), want (0, 0)", e.LambdaRow, e.LambdaCol)
	}
}

func TestFindEquilibriumPrisonersDilemma(t *testing.T) {
	g := prisonersDilemma()
	e, err := g.FindEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	// Support enumeration visits small supports first, so the pure (D, D)
	// equilibrium is found.
	if e.X.String() != "(0, 1)" || e.Y.String() != "(0, 1)" {
		t.Errorf("equilibrium = (%s, %s), want pure (D, D)", e.X, e.Y)
	}
	if e.LambdaRow.RatString() != "1" || e.LambdaCol.RatString() != "1" {
		t.Errorf("values = (%s, %s)", e.LambdaRow, e.LambdaCol)
	}
}

func TestFig5Equilibria(t *testing.T) {
	g := fig5()
	e, err := g.FindEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsEquilibrium(e.Profile) {
		t.Fatal("solver returned a non-equilibrium")
	}
	// Remark 2: with S1 = {A}, both payoffs are 1.
	if e.LambdaRow.RatString() != "1" || e.LambdaCol.RatString() != "1" {
		t.Errorf("λ = (%s, %s), want (1, 1)", e.LambdaRow, e.LambdaCol)
	}

	// Remark 2's ambiguity (the paper's "q <= 1/2" is qD <= 1/2): any column
	// mix with qD <= 1/2 makes (A; q) an equilibrium, since row B pays 2·qD
	// <= 1 = row A's payoff and the column agent is indifferent against A.
	for _, qd := range []string{"0", "1/4", "1/2"} {
		q := numeric.MustRat(qd)
		y := numeric.VecOf(numeric.Sub(numeric.One(), q), q)
		p := Profile{X: numeric.VecOfInts(1, 0), Y: y}
		if !g.IsEquilibrium(p) {
			t.Errorf("qD = %s: (A; q) should be an equilibrium", qd)
		}
	}
	// ... while qD > 1/2 lets the row agent deviate to B (payoff 2·qD > 1);
	// the extreme case is pure D.
	pureD := numeric.VecOfInts(0, 1)
	p := Profile{X: numeric.VecOfInts(1, 0), Y: pureD}
	if g.IsEquilibrium(p) {
		t.Error("(A; D) should not be an equilibrium: row deviates to B")
	}
	threeQuarters := numeric.VecOf(numeric.R(1, 4), numeric.R(3, 4))
	if g.IsEquilibrium(Profile{X: numeric.VecOfInts(1, 0), Y: threeQuarters}) {
		t.Error("qD = 3/4: row agent deviates to B; not an equilibrium")
	}
}

func TestSolveForSupportsFig5(t *testing.T) {
	g := fig5()
	// Supports S1 = {A} = {0}, S2 = {C, D} = {0, 1}: equilibrium family; the
	// solver returns one member and verifies it.
	e, err := g.SolveForSupports([]int{0}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsEquilibrium(e.Profile) {
		t.Fatal("returned profile is not an equilibrium")
	}
	if e.LambdaRow.RatString() != "1" {
		t.Errorf("λ1 = %s", e.LambdaRow.RatString())
	}

	// Support pair with no equilibrium.
	if _, err := g.SolveForSupports([]int{1}, []int{0}); err == nil {
		t.Error("S1={B}, S2={C} admits no equilibrium; accepted anyway")
	}
}

func TestSolveForSupportsValidation(t *testing.T) {
	g := fig5()
	if _, err := g.SolveForSupports(nil, []int{0}); err == nil {
		t.Error("empty support accepted")
	}
	if _, err := g.SolveForSupports([]int{0, 0}, []int{0}); err == nil {
		t.Error("duplicate support index accepted")
	}
	if _, err := g.SolveForSupports([]int{5}, []int{0}); err == nil {
		t.Error("out-of-range support accepted")
	}
}

func TestAllSupportEquilibriaBattleOfSexes(t *testing.T) {
	g := FromInts(
		[][]int64{{2, 0}, {0, 1}},
		[][]int64{{1, 0}, {0, 2}},
	)
	var all []*Equilibrium
	g.enumerateSupportEquilibria(func(e *Equilibrium) bool {
		all = append(all, e)
		return true
	})
	// BoS has two pure equilibria and one fully mixed one.
	var pure, mixed int
	for _, e := range all {
		if !g.IsEquilibrium(e.Profile) {
			t.Fatal("non-equilibrium returned")
		}
		if len(e.X.Support()) == 1 && len(e.Y.Support()) == 1 {
			pure++
		}
		if len(e.X.Support()) == 2 && len(e.Y.Support()) == 2 {
			mixed++
		}
	}
	if pure != 2 {
		t.Errorf("found %d pure equilibria, want 2", pure)
	}
	if mixed < 1 {
		t.Error("missing the fully mixed equilibrium")
	}
}

// Property: on random small games the support-enumeration solver always
// finds a verified equilibrium (Nash's theorem), and the zero-sum value of
// A (by the maximin LP) equals the row payoff of an equilibrium of (A, −A).
func TestSolverAlwaysFindsEquilibriumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n, m := 2+rng.Intn(2), 2+rng.Intn(2)
		a := make([][]int64, n)
		b := make([][]int64, n)
		neg := make([][]int64, n)
		for i := 0; i < n; i++ {
			a[i] = make([]int64, m)
			b[i] = make([]int64, m)
			neg[i] = make([]int64, m)
			for j := 0; j < m; j++ {
				a[i][j] = int64(rng.Intn(9) - 4)
				b[i][j] = int64(rng.Intn(9) - 4)
				neg[i][j] = -a[i][j]
			}
		}
		g := FromInts(a, b)
		e, err := g.FindEquilibrium()
		if err != nil {
			t.Fatalf("trial %d: no equilibrium found", trial)
		}
		if !g.IsEquilibrium(e.Profile) {
			t.Fatalf("trial %d: solver returned non-equilibrium", trial)
		}

		zs := FromInts(a, neg)
		ze, err := zs.FindEquilibrium()
		if err != nil {
			t.Fatalf("trial %d: zero-sum game has no equilibrium", trial)
		}
		value := maximinValue(t, a)
		if !numeric.Eq(ze.LambdaRow, value) {
			t.Fatalf("trial %d: equilibrium payoff %s != game value %s",
				trial, ze.LambdaRow.RatString(), value.RatString())
		}
	}
}

// maximinValue solves the row agent's side of the zero-sum game a by exact
// LP — max v s.t. Σ_i x_i a(i,j) >= v for every column j, Σ x = 1, x >= 0,
// with v = v⁺ − v⁻ — as an oracle independent of support enumeration.
func maximinValue(t *testing.T, a [][]int64) *numeric.Rat {
	t.Helper()
	n, m := len(a), len(a[0])
	lp := &numeric.LP{NumVars: n + 2, Objective: numeric.NewVec(n + 2)}
	lp.Objective.SetAt(n, numeric.One())
	lp.Objective.SetAt(n+1, numeric.I(-1))
	for j := 0; j < m; j++ {
		row := numeric.NewVec(n + 2)
		for i := 0; i < n; i++ {
			row.SetAt(i, numeric.I(a[i][j]))
		}
		row.SetAt(n, numeric.I(-1))
		row.SetAt(n+1, numeric.One())
		lp.AddGE(row, numeric.Zero())
	}
	sum := numeric.NewVec(n + 2)
	for i := 0; i < n; i++ {
		sum.SetAt(i, numeric.One())
	}
	lp.AddEQ(sum, numeric.One())
	res, err := numeric.SolveLP(lp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != numeric.Optimal {
		t.Fatalf("maximin LP status %v", res.Status)
	}
	return res.Objective
}
