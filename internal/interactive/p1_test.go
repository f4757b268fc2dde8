package interactive

import (
	"errors"
	"math/rand"
	"testing"

	"rationality/internal/bimatrix"
	"rationality/internal/numeric"
)

func fig5() *bimatrix.Game {
	return bimatrix.FromInts(
		[][]int64{{1, 1}, {0, 2}},
		[][]int64{{1, 1}, {1, 0}},
	)
}

func matchingPennies() *bimatrix.Game {
	return bimatrix.FromInts(
		[][]int64{{1, -1}, {-1, 1}},
		[][]int64{{-1, 1}, {1, -1}},
	)
}

func TestP1RoundTripMatchingPennies(t *testing.T) {
	g := matchingPennies()
	advice, eq, err := BuildP1Advice(g)
	if err != nil {
		t.Fatal(err)
	}
	if advice.BitsOnWire() != 4 {
		t.Errorf("BitsOnWire = %d, want n+m = 4", advice.BitsOnWire())
	}
	got, err := VerifyP1(g, advice)
	if err != nil {
		t.Fatalf("honest advice rejected: %v", err)
	}
	if got.X.String() != eq.X.String() || got.Y.String() != eq.Y.String() {
		t.Errorf("recovered (%s, %s), prover had (%s, %s)", got.X, got.Y, eq.X, eq.Y)
	}
	if got.LambdaRow.Sign() != 0 || got.LambdaCol.Sign() != 0 {
		t.Errorf("values (%s, %s), want (0, 0)", got.LambdaRow, got.LambdaCol)
	}
}

func TestP1RowVerifierRecoversColumnMix(t *testing.T) {
	g := matchingPennies()
	advice := &P1Advice{RowSupport: []int{0, 1}, ColSupport: []int{0, 1}, Rows: 2, Cols: 2}
	y, lambda1, err := VerifyP1Row(g, advice)
	if err != nil {
		t.Fatal(err)
	}
	half := numeric.R(1, 2)
	if y.String() != numeric.VecOf(half, half).String() {
		t.Errorf("y = %s, want uniform", y)
	}
	if lambda1.Sign() != 0 {
		t.Errorf("λ1 = %s, want 0", lambda1.RatString())
	}
}

func TestP1RejectsWrongSupports(t *testing.T) {
	g := matchingPennies()
	// Pure supports admit no equilibrium in Matching Pennies.
	advice := &P1Advice{RowSupport: []int{0}, ColSupport: []int{0}, Rows: 2, Cols: 2}
	if _, err := VerifyP1(g, advice); err == nil {
		t.Fatal("non-equilibrium supports accepted")
	}
	var re *RejectionError
	_, err := VerifyP1(g, advice)
	if !errors.As(err, &re) || re.Protocol != "P1" {
		t.Fatalf("error = %v, want P1 RejectionError", err)
	}
}

func TestP1RejectsMalformedAdvice(t *testing.T) {
	g := matchingPennies()
	cases := []*P1Advice{
		nil,
		{RowSupport: []int{0}, ColSupport: []int{0}, Rows: 3, Cols: 2},    // wrong dims
		{RowSupport: nil, ColSupport: []int{0}, Rows: 2, Cols: 2},         // empty support
		{RowSupport: []int{0, 0}, ColSupport: []int{0}, Rows: 2, Cols: 2}, // dup index
		{RowSupport: []int{5}, ColSupport: []int{0}, Rows: 2, Cols: 2},    // out of range
	}
	for i, advice := range cases {
		if _, err := VerifyP1(g, advice); err == nil {
			t.Errorf("case %d: malformed advice accepted", i)
		}
	}
}

func TestP1Fig5DegenerateSupports(t *testing.T) {
	g := fig5()
	// S1 = {A}, S2 = {C, D}: the indifference system for the row verifier is
	// underdetermined (row A pays 1 against everything); the LP fallback
	// must find a valid completion.
	advice := &P1Advice{RowSupport: []int{0}, ColSupport: []int{0, 1}, Rows: 2, Cols: 2}
	eq, err := VerifyP1(g, advice)
	if err != nil {
		t.Fatalf("degenerate advice rejected: %v", err)
	}
	if eq.LambdaRow.RatString() != "1" || eq.LambdaCol.RatString() != "1" {
		t.Errorf("λ = (%s, %s), want (1, 1)", eq.LambdaRow, eq.LambdaCol)
	}
	if !g.IsEquilibrium(eq.Profile) {
		t.Error("recovered profile is not an equilibrium")
	}
}

func TestP1OffSupportDominanceRejected(t *testing.T) {
	// Game where the column mix recovered from the claimed supports pays an
	// off-support row MORE than λ1: claim S1 = {0}, S2 = {0}; row 1 earns 5.
	g := bimatrix.FromInts(
		[][]int64{{1, 0}, {5, 0}},
		[][]int64{{1, 0}, {1, 0}},
	)
	advice := &P1Advice{RowSupport: []int{0}, ColSupport: []int{0}, Rows: 2, Cols: 2}
	if _, _, err := VerifyP1Row(g, advice); err == nil {
		t.Fatal("dominated advice accepted")
	}
}

func TestAdviceFromEquilibrium(t *testing.T) {
	g := matchingPennies()
	eq, err := g.FindEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	advice := AdviceFromEquilibrium(g, eq)
	if len(advice.RowSupport) != 2 || len(advice.ColSupport) != 2 {
		t.Errorf("supports = %v / %v", advice.RowSupport, advice.ColSupport)
	}
	if advice.Rows != 2 || advice.Cols != 2 {
		t.Errorf("dims = %dx%d", advice.Rows, advice.Cols)
	}
}

// Property: for random games, the advice built from the solver's equilibrium
// is always accepted by the verifier, and the recovered equilibrium values
// match the solver's.
func TestP1CompletenessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		n, m := 2+rng.Intn(2), 2+rng.Intn(2)
		a := make([][]int64, n)
		b := make([][]int64, n)
		for i := range a {
			a[i] = make([]int64, m)
			b[i] = make([]int64, m)
			for j := range a[i] {
				a[i][j] = int64(rng.Intn(11) - 5)
				b[i][j] = int64(rng.Intn(11) - 5)
			}
		}
		g := bimatrix.FromInts(a, b)
		advice, eq, err := BuildP1Advice(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := VerifyP1(g, advice)
		if err != nil {
			t.Fatalf("trial %d: honest advice rejected: %v", trial, err)
		}
		if !numeric.Eq(got.LambdaRow, eq.LambdaRow) || !numeric.Eq(got.LambdaCol, eq.LambdaCol) {
			t.Fatalf("trial %d: recovered values (%s, %s) != prover's (%s, %s)",
				trial, got.LambdaRow, got.LambdaCol, eq.LambdaRow, eq.LambdaCol)
		}
	}
}

// Property: P1 soundness — advice naming supports of a profile that is NOT
// an equilibrium is rejected.
func TestP1SoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tested := 0
	for trial := 0; trial < 80; trial++ {
		n, m := 2, 2
		a := make([][]int64, n)
		b := make([][]int64, n)
		for i := range a {
			a[i] = make([]int64, m)
			b[i] = make([]int64, m)
			for j := range a[i] {
				a[i][j] = int64(rng.Intn(9) - 4)
				b[i][j] = int64(rng.Intn(9) - 4)
			}
		}
		g := bimatrix.FromInts(a, b)
		// Random supports.
		s1 := randomSupport(rng, n)
		s2 := randomSupport(rng, m)
		advice := &P1Advice{RowSupport: s1, ColSupport: s2, Rows: n, Cols: m}
		eq, err := VerifyP1(g, advice)
		if err != nil {
			continue // rejected, fine
		}
		tested++
		if !g.IsEquilibrium(eq.Profile) {
			t.Fatalf("trial %d: verifier accepted a non-equilibrium", trial)
		}
	}
	if tested == 0 {
		t.Skip("no random supports were valid equilibria")
	}
}

func randomSupport(rng *rand.Rand, n int) []int {
	var s []int
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s = append(s, i)
		}
	}
	if len(s) == 0 {
		s = append(s, rng.Intn(n))
	}
	return s
}
