package numeric

import (
	"math/rand"
	"testing"
)

func mustSolveLP(t *testing.T, lp *LP) *LPResult {
	t.Helper()
	res, err := SolveLP(lp)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLPSimpleMaximize(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  =>  opt 36 at (2, 6).
	lp := &LP{NumVars: 2, Objective: VecOfInts(3, 5)}
	lp.AddLE(VecOfInts(1, 0), I(4))
	lp.AddLE(VecOfInts(0, 2), I(12))
	lp.AddLE(VecOfInts(3, 2), I(18))
	res := mustSolveLP(t, lp)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Objective.RatString() != "36" {
		t.Fatalf("objective = %s, want 36", res.Objective.RatString())
	}
	if res.X.String() != "(2, 6)" {
		t.Fatalf("X = %s, want (2, 6)", res.X)
	}
}

func TestLPMinimize(t *testing.T) {
	// min x + y s.t. x + 2y >= 4, 3x + y >= 6  =>  opt at intersection
	// (8/5, 6/5), value 14/5.
	lp := &LP{NumVars: 2, Objective: VecOfInts(1, 1), Minimize: true}
	lp.AddGE(VecOfInts(1, 2), I(4))
	lp.AddGE(VecOfInts(3, 1), I(6))
	res := mustSolveLP(t, lp)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Objective.RatString() != "14/5" {
		t.Fatalf("objective = %s, want 14/5", res.Objective.RatString())
	}
}

func TestLPEqualityConstraints(t *testing.T) {
	// max x s.t. x + y = 10, x - y = 4  =>  x = 7.
	lp := &LP{NumVars: 2, Objective: VecOfInts(1, 0)}
	lp.AddEQ(VecOfInts(1, 1), I(10))
	lp.AddEQ(VecOfInts(1, -1), I(4))
	res := mustSolveLP(t, lp)
	if res.Status != Optimal || res.Objective.RatString() != "7" {
		t.Fatalf("res = %v obj=%s", res.Status, res.Objective)
	}
}

func TestLPInfeasible(t *testing.T) {
	lp := &LP{NumVars: 1, Objective: VecOfInts(1)}
	lp.AddLE(VecOfInts(1), I(1))
	lp.AddGE(VecOfInts(1), I(2))
	res := mustSolveLP(t, lp)
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestLPUnbounded(t *testing.T) {
	lp := &LP{NumVars: 2, Objective: VecOfInts(1, 1)}
	lp.AddGE(VecOfInts(1, 0), I(1))
	res := mustSolveLP(t, lp)
	if res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestLPNegativeRHS(t *testing.T) {
	// x <= -1 with x >= 0 is infeasible.
	lp := &LP{NumVars: 1, Objective: VecOfInts(1)}
	lp.AddLE(VecOfInts(1), I(-1))
	res := mustSolveLP(t, lp)
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}

	// -x <= -1 means x >= 1; min x gives 1.
	lp2 := &LP{NumVars: 1, Objective: VecOfInts(1), Minimize: true}
	lp2.AddLE(VecOfInts(-1), I(-1))
	res2 := mustSolveLP(t, lp2)
	if res2.Status != Optimal || res2.Objective.RatString() != "1" {
		t.Fatalf("res = %v obj=%s", res2.Status, res2.Objective)
	}
}

func TestLPFeasibilityOnly(t *testing.T) {
	lp := &LP{NumVars: 2}
	lp.AddEQ(VecOfInts(1, 1), I(1))
	res := mustSolveLP(t, lp)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if got := res.X.Sum(); got.RatString() != "1" {
		t.Fatalf("x1+x2 = %s, want 1", got.RatString())
	}
}

func TestLPDegenerateNoCycle(t *testing.T) {
	// A classic degenerate LP (Beale's example scaled to rationals); Bland's
	// rule must terminate.
	lp := &LP{NumVars: 4, Objective: VecOf(R(3, 4), I(-150), R(1, 50), I(-6))}
	lp.AddLE(VecOf(R(1, 4), I(-60), Neg(R(1, 25)), I(9)), Zero())
	lp.AddLE(VecOf(R(1, 2), I(-90), Neg(R(1, 50)), I(3)), Zero())
	lp.AddLE(VecOf(Zero(), Zero(), One(), Zero()), One())
	res := mustSolveLP(t, lp)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Objective.RatString() != "1/20" {
		t.Fatalf("objective = %s, want 1/20", res.Objective.RatString())
	}
}

func TestLPValidation(t *testing.T) {
	if _, err := SolveLP(&LP{NumVars: 2, Objective: VecOfInts(1)}); err == nil {
		t.Error("mismatched objective length accepted")
	}
	bad := &LP{NumVars: 2}
	bad.AddLE(VecOfInts(1), I(1))
	if _, err := SolveLP(bad); err == nil {
		t.Error("mismatched constraint length accepted")
	}
	if _, err := SolveLP(&LP{NumVars: -1}); err == nil {
		t.Error("negative NumVars accepted")
	}
}

// Property: on random feasible LPs (constraints x_i <= b_i with b_i >= 0),
// the optimum of max sum(x) is sum(b).
func TestLPBoxOptimumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(6)
		lp := &LP{NumVars: n, Objective: NewVec(n)}
		want := Zero()
		for i := 0; i < n; i++ {
			lp.Objective.SetAt(i, One())
			b := I(int64(rng.Intn(50)))
			unit := NewVec(n)
			unit.SetAt(i, One())
			lp.AddLE(unit, b)
			want = Add(want, b)
		}
		res := mustSolveLP(t, lp)
		if res.Status != Optimal || !Eq(res.Objective, want) {
			t.Fatalf("trial %d: got %v %s, want optimal %s",
				trial, res.Status, res.Objective, want.RatString())
		}
	}
}

// Property: LP duality spot-check. For random primal
// max c·x s.t. Ax <= b (b >= 0), the optimum equals the dual optimum
// min b·y s.t. Aᵀy >= c, y >= 0 (strong duality).
func TestLPStrongDualityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(3)
		m := 1 + rng.Intn(3)
		a := make([][]int64, m)
		for i := range a {
			a[i] = make([]int64, n)
			for j := range a[i] {
				a[i][j] = int64(rng.Intn(7) + 1) // positive => primal bounded
			}
		}
		b := NewVec(m)
		for i := 0; i < m; i++ {
			b.SetAt(i, I(int64(rng.Intn(20))))
		}
		c := NewVec(n)
		for j := 0; j < n; j++ {
			c.SetAt(j, I(int64(rng.Intn(10))))
		}

		primal := &LP{NumVars: n, Objective: c}
		for i := 0; i < m; i++ {
			primal.AddLE(VecOfInts(a[i]...), b.At(i))
		}
		dual := &LP{NumVars: m, Objective: b, Minimize: true}
		for j := 0; j < n; j++ {
			col := make([]int64, m)
			for i := range col {
				col[i] = a[i][j]
			}
			dual.AddGE(VecOfInts(col...), c.At(j))
		}

		pres := mustSolveLP(t, primal)
		dres := mustSolveLP(t, dual)
		if pres.Status != Optimal || dres.Status != Optimal {
			t.Fatalf("trial %d: statuses %v / %v", trial, pres.Status, dres.Status)
		}
		if !Eq(pres.Objective, dres.Objective) {
			t.Fatalf("trial %d: duality gap %s vs %s",
				trial, pres.Objective.RatString(), dres.Objective.RatString())
		}
	}
}
