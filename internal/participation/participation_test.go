package participation

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"rationality/internal/numeric"
)

// paperGame is the §5 worked example: n = 3 firms, k = 2, c/v = 3/8.
// With v = 8 and c = 3 all the paper's quantities are exact rationals.
func paperGame() *Game {
	return MustNew(3, 2, numeric.I(8), numeric.I(3))
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name    string
		n, k    int
		v, c    *numeric.Rat
		wantErr bool
	}{
		{"valid", 3, 2, numeric.I(8), numeric.I(3), false},
		{"k too small", 3, 1, numeric.I(8), numeric.I(3), true},
		{"n below quorum", 2, 3, numeric.I(8), numeric.I(3), true},
		{"zero fee", 3, 2, numeric.I(8), numeric.Zero(), true},
		{"fee above prize", 3, 2, numeric.I(3), numeric.I(8), true},
		{"fee equals prize", 3, 2, numeric.I(3), numeric.I(3), true},
		{"n equals k", 4, 4, numeric.I(8), numeric.I(3), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.n, c.k, c.v, c.c)
			if (err != nil) != c.wantErr {
				t.Fatalf("New(%d, %d) error = %v, wantErr = %v", c.n, c.k, err, c.wantErr)
			}
		})
	}
}

func TestAccessors(t *testing.T) {
	g := paperGame()
	if g.N() != 3 || g.K() != 2 {
		t.Errorf("N, K = %d, %d", g.N(), g.K())
	}
	if g.V().RatString() != "8" || g.C().RatString() != "3" {
		t.Errorf("V, C = %s, %s", g.V(), g.C())
	}
	// Accessors copy.
	v := g.V()
	v.SetInt64(0)
	if g.V().RatString() != "8" {
		t.Error("V leaked internal state")
	}
}

// The paper's k = 2 closed forms:
// A = 1−(1−p)^{n−1}, B = (1−p)^{n−1},
// C = 1−(1−p)^{n−1}−(n−1)p(1−p)^{n−2}, D = (1−p)^{n−1}+(n−1)p(1−p)^{n−2}.
func TestConditionalProbabilitiesK2ClosedForm(t *testing.T) {
	g := paperGame()
	p := numeric.R(1, 4)
	q := numeric.R(3, 4)

	wantA := numeric.Sub(numeric.One(), numeric.Pow(q, 2)) // 1 − 9/16 = 7/16
	if got := g.Ak(p); !numeric.Eq(got, wantA) {
		t.Errorf("Ak = %s, want %s", got.RatString(), wantA.RatString())
	}
	if got := g.Bk(p); !numeric.Eq(got, numeric.Pow(q, 2)) {
		t.Errorf("Bk = %s, want 9/16", got.RatString())
	}
	// C = 1 − 9/16 − 2·(1/4)(3/4) = 1 − 9/16 − 6/16 = 1/16.
	if got := g.Ck(p); got.RatString() != "1/16" {
		t.Errorf("Ck = %s, want 1/16", got.RatString())
	}
	if got := g.Dk(p); got.RatString() != "15/16" {
		t.Errorf("Dk = %s, want 15/16", got.RatString())
	}
}

func TestProbabilitiesComplement(t *testing.T) {
	g := MustNew(7, 3, numeric.I(10), numeric.I(2))
	for _, ps := range []string{"0", "1/7", "2/5", "9/10", "1"} {
		p := numeric.MustRat(ps)
		if !numeric.Eq(numeric.Add(g.Ak(p), g.Bk(p)), numeric.One()) {
			t.Errorf("p = %s: Ak + Bk != 1", ps)
		}
		if !numeric.Eq(numeric.Add(g.Ck(p), g.Dk(p)), numeric.One()) {
			t.Errorf("p = %s: Ck + Dk != 1", ps)
		}
		// Participating can only help the quorum: Ak >= Ck.
		if numeric.Lt(g.Ak(p), g.Ck(p)) {
			t.Errorf("p = %s: Ak < Ck", ps)
		}
	}
}

// The paper: for c/v = 3/8 and n = 3, the equilibrium is p = 1/4 and the
// firm's expected gain is v/16.
func TestPaperEquilibriumNumbers(t *testing.T) {
	g := paperGame()
	p := numeric.R(1, 4)

	gain, err := g.VerifyAdvice(p)
	if err != nil {
		t.Fatalf("p = 1/4 rejected: %v", err)
	}
	// v/16 with v = 8 is 1/2.
	if gain.RatString() != "1/2" {
		t.Errorf("equilibrium gain = %s, want v/16 = 1/2", gain.RatString())
	}
	// Eq. (4): c = v(n−1)p(1−p)^{n−2} → 3 = 8·2·(1/4)·(3/4) = 3. ✓
	if g.PivotGap(p).Sign() != 0 {
		t.Errorf("PivotGap(1/4) = %s, want 0", g.PivotGap(p).RatString())
	}
}

func TestVerifyAdviceRejectsWrongP(t *testing.T) {
	g := paperGame()
	for _, ps := range []string{"1/3", "1/8", "0", "1", "-1/4", "9/8"} {
		if _, err := g.VerifyAdvice(numeric.MustRat(ps)); err == nil {
			t.Errorf("p = %s accepted", ps)
		}
	}
	// The high-branch root 1/2 is also a valid equilibrium: c = 8·2·(1/2)(1/2) = 4?
	// No: 8·2·(1/2)·(1/2) = 4 != 3, so 1/2 is NOT a root here. The true high
	// root solves 16p(1−p) = 3 → p = 3/4·... Let's verify: p = 3/4 gives
	// 16·(3/4)(1/4) = 3. ✓
	if _, err := g.VerifyAdvice(numeric.R(3, 4)); err != nil {
		t.Errorf("high-branch root 3/4 rejected: %v", err)
	}
}

func TestVerifyAdviceApprox(t *testing.T) {
	g := paperGame()
	nearRoot := numeric.MustRat("2499/10000") // close to 1/4
	if _, err := g.VerifyAdvice(nearRoot); err == nil {
		t.Fatal("inexact root accepted by the exact verifier")
	}
	if _, err := g.VerifyAdviceApprox(nearRoot, numeric.R(1, 100)); err != nil {
		t.Fatalf("near-root rejected with generous tolerance: %v", err)
	}
	if _, err := g.VerifyAdviceApprox(nearRoot, numeric.R(1, 1000000)); err == nil {
		t.Fatal("near-root accepted with tight tolerance")
	}
	if _, err := g.VerifyAdviceApprox(nearRoot, numeric.I(-1)); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

func TestIndifferenceGapEqualsPivotGapIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		k := 2 + rng.Intn(n-1)
		if k > n {
			k = n
		}
		v := numeric.I(int64(2 + rng.Intn(20)))
		c := numeric.Div(v, numeric.I(int64(2+rng.Intn(8))))
		g, err := New(n, k, v, c)
		if err != nil {
			continue
		}
		p := numeric.R(int64(1+rng.Intn(9)), 10)
		if !numeric.Eq(g.IndifferenceGap(p), g.PivotGap(p)) {
			t.Fatalf("trial %d (n=%d k=%d p=%s): IndifferenceGap %s != PivotGap %s",
				trial, n, k, p.RatString(),
				g.IndifferenceGap(p).RatString(), g.PivotGap(p).RatString())
		}
	}
}

func TestSolveExactFindsPaperRoots(t *testing.T) {
	g := paperGame()
	low, ok := g.SolveExact(LowBranch, 16)
	if !ok || low.RatString() != "1/4" {
		t.Fatalf("low root = %v (ok=%v), want 1/4", low, ok)
	}
	high, ok := g.SolveExact(HighBranch, 16)
	if !ok || high.RatString() != "3/4" {
		t.Fatalf("high root = %v (ok=%v), want 3/4", high, ok)
	}
}

func TestSolveBisection(t *testing.T) {
	g := paperGame()
	p, gap, err := g.Solve(LowBranch, numeric.R(1, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	// Must be within tolerance of 1/4.
	delta := new(big.Rat).Abs(numeric.Sub(p, numeric.R(1, 4)))
	if numeric.Gt(delta, numeric.R(1, 1<<20)) {
		t.Errorf("low root %s not within tolerance of 1/4", p.RatString())
	}
	_ = gap

	p, _, err = g.Solve(HighBranch, numeric.R(1, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	delta = new(big.Rat).Abs(numeric.Sub(p, numeric.R(3, 4)))
	if numeric.Gt(delta, numeric.R(1, 1<<20)) {
		t.Errorf("high root %s not within tolerance of 3/4", p.RatString())
	}
}

func TestSolveNoEquilibriumWhenFeeTooHigh(t *testing.T) {
	// Peak pivot value at n=3, k=2 is v·2·(1/2)(1/2) = v/2; any c > v/2
	// admits no interior symmetric equilibrium.
	g := MustNew(3, 2, numeric.I(8), numeric.I(5))
	if _, _, err := g.Solve(LowBranch, numeric.R(1, 1024)); !errors.Is(err, ErrNoSymmetricEquilibrium) {
		t.Fatalf("err = %v, want ErrNoSymmetricEquilibrium", err)
	}
}

func TestSolveUnanimityQuorumEdge(t *testing.T) {
	// n == k: the quorum needs everyone, the pivot peak sits at p = 1, and
	// the whole of (0, 1] is the "low" branch. The interior root of
	// v·p^{k−1} = c is (c/v)^{1/(k−1)}; with v = 8, c = 2, k = n = 3 that is
	// p = 1/2 exactly.
	g := MustNew(3, 3, numeric.I(8), numeric.I(2))
	p, ok := g.SolveExact(LowBranch, 8)
	if !ok || p.RatString() != "1/2" {
		t.Fatalf("p = %v ok=%v, want 1/2", p, ok)
	}
	if _, err := g.VerifyAdvice(p); err != nil {
		t.Fatalf("unanimity-quorum advice rejected: %v", err)
	}
	// The high branch is empty ([peak, 1) with peak = 1): bisection
	// degenerates and reports a non-zero gap rather than a fake root.
	hp, gap, err := g.Solve(HighBranch, numeric.R(1, 1024))
	if err != nil {
		t.Fatalf("high branch errored: %v", err)
	}
	if gap.Sign() == 0 && hp.Cmp(numeric.One()) < 0 {
		t.Fatalf("high branch fabricated an interior root %s", hp.RatString())
	}
}

func TestSolveValidation(t *testing.T) {
	g := paperGame()
	if _, _, err := g.Solve(LowBranch, numeric.Zero()); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, _, err := g.Solve(Branch(9), numeric.R(1, 4)); err == nil {
		t.Error("unknown branch accepted")
	}
}

func TestSolveGeneralK(t *testing.T) {
	// n = 5, k = 3: the inventor must find a root of
	// v·C(4,2)·p²(1−p)² = c. With v = 6, c = 6·6·(1/4·1/4·... pick p = 1/2:
	// 6·6·(1/4)(1/4) = 9/4. Use c = 9/4 so p = 1/2 is exact.
	g := MustNew(5, 3, numeric.I(6), numeric.R(9, 4))
	p, ok := g.SolveExact(LowBranch, 8)
	if !ok {
		t.Fatal("no exact root found")
	}
	if p.RatString() != "1/2" {
		t.Fatalf("p = %s, want 1/2", p.RatString())
	}
	if _, err := g.VerifyAdvice(p); err != nil {
		t.Fatalf("general-k advice rejected: %v", err)
	}
}

// Property: whatever Solve returns on either branch has |gap| small, and
// VerifyAdviceApprox accepts it with the same tolerance scaled by the
// pivot's Lipschitz slack.
func TestSolveThenVerifyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(5)
		v := numeric.I(int64(4 + rng.Intn(12)))
		c := numeric.Div(v, numeric.I(int64(4+rng.Intn(12))))
		g, err := New(n, 2, v, c)
		if err != nil {
			continue
		}
		tol := numeric.R(1, 1<<24)
		p, _, err := g.Solve(LowBranch, tol)
		if errors.Is(err, ErrNoSymmetricEquilibrium) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The gap at the returned p must be tiny: accept with a loose
		// tolerance derived from v and n.
		loose := numeric.Div(numeric.Mul(v, numeric.I(int64(n*n))), numeric.I(1<<20))
		if _, err := g.VerifyAdviceApprox(p, loose); err != nil {
			t.Fatalf("trial %d: solver output rejected: %v", trial, err)
		}
	}
}
