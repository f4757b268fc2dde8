package numeric

import (
	"errors"
	"math/rand"
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
