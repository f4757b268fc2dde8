package numeric

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestQMatchesRat holds Q's arithmetic to big.Rat's on terms drawn small,
// in the middle and near 2⁶³: a result Q computes spells as big.Rat's, and
// a result whose terms do not fit in int64 abandons the computation, never
// wraps. A sum of 128-bit products past 2¹²⁷ abandons it too.
func TestQMatchesRat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	term := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return int64(rng.Intn(200) - 100)
		case 1:
			return math.MaxInt64 - rng.Int63n(1000)
		case 2:
			return -math.MaxInt64 + rng.Int63n(1000)
		}
		return rng.Int63n(1<<40) - 1<<39
	}
	den := func() int64 {
		if rng.Intn(2) == 0 {
			return 1 + rng.Int63n(1000)
		}
		return math.MaxInt64 - rng.Int63n(1000)
	}
	fitsWords := func(r *big.Rat) bool {
		return r.Num().IsInt64() && r.Num().Int64() != math.MinInt64 && r.Denom().IsInt64()
	}
	ops := []struct {
		name string
		q    func(z, x, y *Q) *Q
		r    func(z, x, y *big.Rat) *big.Rat
	}{
		{"Add", (*Q).Add, (*big.Rat).Add},
		{"Sub", (*Q).Sub, (*big.Rat).Sub},
		{"Mul", (*Q).Mul, (*big.Rat).Mul},
	}
	for trial := 0; trial < 20000; trial++ {
		a, b, c, d := term(), den(), term(), den()
		x, y := big.NewRat(a, b), big.NewRat(c, d)
		var qx, qy Q
		qx.SetFrac64(a, b)
		qy.SetFrac64(c, d)
		if qx.RatString() != x.RatString() {
			t.Fatalf("SetFrac64(%d, %d) = %s, big.Rat %s", a, b, qx.RatString(), x.RatString())
		}
		if got, want := qx.Cmp(&qy), x.Cmp(y); got != want {
			t.Fatalf("%s Cmp %s = %d, big.Rat %d", x.RatString(), y.RatString(), got, want)
		}
		for _, op := range ops {
			var z Q
			fits := Fits(func() { op.q(&z, &qx, &qy) })
			want := op.r(new(big.Rat), x, y)
			if fits && z.RatString() != want.RatString() {
				t.Fatalf("%s %s %s = %s, big.Rat %s", x.RatString(), op.name, y.RatString(), z.RatString(), want.RatString())
			}
			if fits && !fitsWords(want) {
				t.Fatalf("%s %s %s = %s does not fit in words, yet Q gave %s", x.RatString(), op.name, y.RatString(), want.RatString(), z.RatString())
			}
		}
	}
	big2 := mul(math.MaxInt64, math.MaxInt64) // 2¹²⁶ − 2⁶⁴ + 1
	if Fits(func() { big2.add(big2).add(big2) }) {
		t.Fatal("three products near 2¹²⁶ summed without abandoning")
	}
	if !Fits(func() { big2.add(big2) }) {
		t.Fatal("two products near 2¹²⁶ abandoned, though their sum is below 2¹²⁷")
	}
	var z Q
	if Fits(func() { z.SetInt64(math.MinInt64) }) {
		t.Fatal("SetInt64(MinInt64) kept a numerator whose negation does not fit")
	}
}
