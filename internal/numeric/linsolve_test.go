package numeric

import (
	"errors"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

func TestSolveUniqueSystem(t *testing.T) {
	// x + y = 3; x - y = 1  =>  x = 2, y = 1.
	a := MatrixOfInts([][]int64{{1, 1}, {1, -1}})
	b := VecOfInts(3, 1)
	sol, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Unique || sol.Rank != 2 {
		t.Fatalf("unique=%v rank=%d", sol.Unique, sol.Rank)
	}
	if sol.X.String() != "(2, 1)" {
		t.Fatalf("X = %s", sol.X)
	}
}

func TestSolveRationalSystem(t *testing.T) {
	// 2x + 3y = 1; 4x + 9y = 2  =>  x = 1/2, y = 0.
	a := MatrixOfInts([][]int64{{2, 3}, {4, 9}})
	b := VecOfInts(1, 2)
	sol, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sol.X.String() != "(1/2, 0)" {
		t.Fatalf("X = %s", sol.X)
	}
}

func TestSolveInconsistent(t *testing.T) {
	a := MatrixOfInts([][]int64{{1, 1}, {1, 1}})
	b := VecOfInts(1, 2)
	_, err := Solve(a, b)
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

func TestSolveUnderdetermined(t *testing.T) {
	a := MatrixOfInts([][]int64{{1, 1, 1}})
	b := VecOfInts(5)
	sol, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Unique {
		t.Fatal("1 equation, 3 unknowns should not be unique")
	}
	if sol.Rank != 1 || len(sol.FreeCols) != 2 {
		t.Fatalf("rank=%d free=%v", sol.Rank, sol.FreeCols)
	}
	// The particular solution must still satisfy the system.
	if got := a.MulVec(sol.X); got.String() != b.String() {
		t.Fatalf("A·x = %s, want %s", got, b)
	}
}

func TestSolveOverdeterminedConsistent(t *testing.T) {
	// Three consistent equations in two unknowns.
	a := MatrixOfInts([][]int64{{1, 0}, {0, 1}, {1, 1}})
	b := VecOfInts(2, 3, 5)
	sol, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sol.X.String() != "(2, 3)" || !sol.Unique {
		t.Fatalf("X = %s unique=%v", sol.X, sol.Unique)
	}
}

func TestSolveZeroSystem(t *testing.T) {
	sol, err := Solve(NewMatrix(2, 2), NewVec(2))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Unique || sol.Rank != 0 || sol.X.Support() != nil {
		t.Fatalf("sol = %+v", sol)
	}
}

// Property: for random square systems with a planted solution, Solve recovers
// a vector that satisfies the system exactly.
func TestSolveSatisfiesSystemProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.SetAt(i, j, I(int64(rng.Intn(21)-10)))
			}
		}
		planted := NewVec(n)
		for i := 0; i < n; i++ {
			planted.SetAt(i, R(int64(rng.Intn(21)-10), int64(1+rng.Intn(9))))
		}
		b := a.MulVec(planted)
		sol, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: planted system reported inconsistent", trial)
		}
		if got := a.MulVec(sol.X); got.String() != b.String() {
			t.Fatalf("trial %d: A·x != b", trial)
		}
		if sol.Unique && sol.X.String() != planted.String() {
			t.Fatalf("trial %d: unique solution differs from planted", trial)
		}
	}
}

// solveGaussJordan is the Gauss–Jordan elimination over big.Rat that Solve
// used before its fraction-free rewrite, kept as the oracle FuzzSolve holds
// Solve to: same X, Unique, Rank, FreeCols and ErrInconsistent.
func solveGaussJordan(a *Matrix, b *Vec) (*Solution, error) {
	rows, cols := a.Rows(), a.Cols()
	aug := NewMatrix(rows, cols+1)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			aug.at(i, j).Set(a.at(i, j))
		}
		aug.at(i, cols).Set(&b.elems[i])
	}
	pivotCols := gaussJordan(aug, cols)
	rank := len(pivotCols)
	for i := rank; i < rows; i++ {
		if aug.at(i, cols).Sign() != 0 {
			return nil, ErrInconsistent
		}
	}
	x := NewVec(cols)
	for r, c := range pivotCols {
		x.elems[c].Set(aug.at(r, cols))
	}
	var freeCols []int
	for j := 0; j < cols; j++ {
		if !slices.Contains(pivotCols, j) {
			freeCols = append(freeCols, j)
		}
	}
	return &Solution{X: x, Unique: rank == cols, Rank: rank, FreeCols: freeCols}, nil
}

// gaussJordan reduces the first limit columns of m in place to reduced row
// echelon form and returns the pivot column of each pivot row, in row order.
// Columns at index >= limit (the augmented part) are carried along.
func gaussJordan(m *Matrix, limit int) []int {
	rows := m.Rows()
	var pivotCols []int
	factor := new(big.Rat)
	prod := new(big.Rat)

	row := 0
	for col := 0; col < limit && row < rows; col++ {
		// Find a pivot in this column at or below `row`.
		pivot := -1
		for r := row; r < rows; r++ {
			if m.at(r, col).Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m.swapRows(row, pivot)

		// Normalize the pivot row.
		inv := new(big.Rat).Inv(m.at(row, col))
		for j := col; j < m.Cols(); j++ {
			m.at(row, j).Mul(m.at(row, j), inv)
		}

		// Eliminate the column from every other row.
		for r := 0; r < rows; r++ {
			if r == row || m.at(r, col).Sign() == 0 {
				continue
			}
			factor.Set(m.at(r, col))
			for j := col; j < m.Cols(); j++ {
				prod.Mul(factor, m.at(row, j))
				m.at(r, j).Sub(m.at(r, j), prod)
			}
		}

		pivotCols = append(pivotCols, col)
		row++
	}
	return pivotCols
}

func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	for c := 0; c < m.cols; c++ {
		m.elems[i*m.cols+c], m.elems[j*m.cols+c] = m.elems[j*m.cols+c], m.elems[i*m.cols+c]
	}
}

// randomSystem draws a rows×cols system with small mixed-denominator
// entries. Some rows are rational combinations of earlier ones and some
// columns copies of earlier ones (rank deficiency); b is planted (A·x for a
// random x) unless inconsistent is set, when it is drawn independently.
func randomSystem(rng *rand.Rand, rows, cols int, inconsistent bool) (*Matrix, *Vec) {
	entry := func() *big.Rat {
		if rng.Intn(4) == 0 {
			return new(big.Rat)
		}
		return R(int64(rng.Intn(19)-9), int64(1+rng.Intn(9)))
	}
	a := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		if i > 0 && rng.Intn(3) == 0 {
			src, k := rng.Intn(i), entry()
			for j := 0; j < cols; j++ {
				a.SetAt(i, j, Mul(a.at(src, j), k))
			}
			continue
		}
		for j := 0; j < cols; j++ {
			a.SetAt(i, j, entry())
		}
	}
	for j := 1; j < cols; j++ {
		if rng.Intn(4) == 0 {
			src, k := rng.Intn(j), entry()
			for i := 0; i < rows; i++ {
				a.SetAt(i, j, Mul(a.at(i, src), k))
			}
		}
	}
	if inconsistent {
		b := NewVec(rows)
		for i := 0; i < rows; i++ {
			b.SetAt(i, entry())
		}
		return a, b
	}
	x := NewVec(cols)
	for j := 0; j < cols; j++ {
		x.SetAt(j, entry())
	}
	return a, a.MulVec(x)
}

// FuzzSolve holds the fraction-free Solve to Gauss–Jordan elimination over
// random rational systems: square, underdetermined, overdetermined,
// rank-deficient, consistent or not. SolveWords is held to the same
// answers wherever its minors fit in machine words.
//
//	go test -run '^$' -fuzz '^FuzzSolve$' -fuzztime 20s ./internal/numeric/
func FuzzSolve(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, uint8(seed%7), uint8(seed/7%7), seed%3 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint8, inconsistent bool) {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSystem(rng, int(rows%8), int(cols%8), inconsistent)
		got, gotErr := Solve(a, b)
		want, wantErr := solveGaussJordan(a, b)
		if !errors.Is(gotErr, wantErr) {
			t.Fatalf("A =\n%s\nb = %s: err %v, Gauss–Jordan %v", a, b, gotErr, wantErr)
		}
		words := func(vals []big.Rat) []Q {
			out := make([]Q, len(vals))
			for i := range vals {
				out[i], _ = ParseQ([]byte(vals[i].RatString()))
			}
			return out
		}
		var x []Q
		var unique, consistent bool
		if Fits(func() { x, unique, consistent = SolveWords(words(a.Values()), words(b.Values()), a.Rows(), a.Cols()) }) &&
			(consistent != (wantErr == nil) || consistent && (unique != want.Unique || JoinRats(x) != want.X.String())) {
			t.Fatalf("A =\n%s\nb = %s: SolveWords consistent=%v unique=%v x=%s, Gauss–Jordan err %v", a, b, consistent, unique, JoinRats(x), wantErr)
		}
		if wantErr != nil {
			return
		}
		if got.X.String() != want.X.String() || got.Unique != want.Unique || got.Rank != want.Rank ||
			!slices.Equal(got.FreeCols, want.FreeCols) {
			t.Fatalf("A =\n%s\nb = %s:\n got %s unique=%v rank=%d free=%v\nwant %s unique=%v rank=%d free=%v",
				a, b, got.X, got.Unique, got.Rank, got.FreeCols, want.X, want.Unique, want.Rank, want.FreeCols)
		}
	})
}
