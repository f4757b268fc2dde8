package numeric

import (
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

func TestRBasics(t *testing.T) {
	if got := R(3, 8); got.RatString() != "3/8" {
		t.Fatalf("R(3,8) = %s, want 3/8", got.RatString())
	}
	if got := I(5); got.RatString() != "5" {
		t.Fatalf("I(5) = %s, want 5", got.RatString())
	}
	if Zero().Sign() != 0 {
		t.Fatal("Zero() is not zero")
	}
	if One().Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatal("One() is not one")
	}
}

func TestRPanicsOnZeroDenominator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("R(1, 0) did not panic")
		}
	}()
	R(1, 0)
}

func TestDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(One(), Zero())
}

func TestArithmeticDoesNotAlias(t *testing.T) {
	a, b := R(1, 2), R(1, 3)
	sum := Add(a, b)
	if a.RatString() != "1/2" || b.RatString() != "1/3" {
		t.Fatal("Add mutated its operands")
	}
	if sum.RatString() != "5/6" {
		t.Fatalf("Add(1/2, 1/3) = %s, want 5/6", sum.RatString())
	}
	sum.SetInt64(99)
	if a.RatString() != "1/2" {
		t.Fatal("result aliases operand")
	}
}

func TestSubMulDivNeg(t *testing.T) {
	if got := Sub(R(3, 4), R(1, 4)); got.RatString() != "1/2" {
		t.Fatalf("Sub = %s", got.RatString())
	}
	if got := Mul(R(2, 3), R(3, 4)); got.RatString() != "1/2" {
		t.Fatalf("Mul = %s", got.RatString())
	}
	if got := Div(R(1, 2), R(1, 4)); got.RatString() != "2" {
		t.Fatalf("Div = %s", got.RatString())
	}
	if got := Neg(R(1, 2)); got.RatString() != "-1/2" {
		t.Fatalf("Neg = %s", got.RatString())
	}
}

func TestAbs(t *testing.T) {
	a := R(-1, 2)
	if got := Abs(a); got.RatString() != "1/2" {
		t.Fatalf("Abs = %s", got.RatString())
	}
}

func TestComparators(t *testing.T) {
	a, b := R(1, 3), R(1, 2)
	if !Lt(a, b) || !Le(a, b) || !Le(a, a) || !Eq(a, a) {
		t.Fatal("Lt/Le/Eq misbehave")
	}
	if !Gt(b, a) || Gt(b, b) {
		t.Fatal("Gt misbehaves")
	}
	if Eq(a, b) || Lt(b, a) || Gt(a, b) {
		t.Fatal("false positives in comparators")
	}
}

func TestPow(t *testing.T) {
	if got := Pow(R(1, 2), 3); got.RatString() != "1/8" {
		t.Fatalf("Pow(1/2, 3) = %s", got.RatString())
	}
	if got := Pow(R(7, 3), 0); got.Cmp(One()) != 0 {
		t.Fatalf("Pow(x, 0) = %s", got.RatString())
	}
	if got := Pow(I(-2), 3); got.RatString() != "-8" {
		t.Fatalf("Pow(-2, 3) = %s", got.RatString())
	}
}

func TestPowPanicsOnNegativeExponent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pow with negative exponent did not panic")
		}
	}()
	Pow(One(), -1)
}

func TestPowMatchesRepeatedMultiplication(t *testing.T) {
	f := func(num int16, k uint8) bool {
		x := R(int64(num), 7)
		exp := int(k % 12)
		want := One()
		for i := 0; i < exp; i++ {
			want = Mul(want, x)
		}
		return Eq(Pow(x, exp), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120}, {20, 10, 184756},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got.Cmp(I(c.want)) != 0 {
			t.Errorf("Binomial(%d,%d) = %s, want %d", c.n, c.k, got.RatString(), c.want)
		}
	}
	if Binomial(5, -1).Sign() != 0 || Binomial(5, 6).Sign() != 0 {
		t.Error("out-of-range Binomial should be zero")
	}
}

func TestBinomialPascalIdentity(t *testing.T) {
	f := func(n, k uint8) bool {
		nn, kk := int(n%30)+1, int(k%32)
		lhs := Binomial(nn, kk)
		rhs := Add(Binomial(nn-1, kk-1), Binomial(nn-1, kk))
		return Eq(lhs, rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseRat(t *testing.T) {
	for _, s := range []string{"3/8", "0.375", "-2", "1"} {
		if _, err := ParseRat(s); err != nil {
			t.Errorf("ParseRat(%q) failed: %v", s, err)
		}
	}
	if _, err := ParseRat("not-a-number"); err == nil {
		t.Error("ParseRat accepted garbage")
	}
	if got := MustRat("3/8"); got.RatString() != "3/8" {
		t.Errorf("MustRat = %s", got.RatString())
	}
}

func TestMustRatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRat did not panic on garbage")
		}
	}()
	MustRat("zzz")
}

// ratSpellings are SetRatBytes' seeds: every branch of its fast path and
// every way out of it — octal and prefixed terms, zero and signed
// denominators, 18 and 19 digits, decimals and exponents, garbage.
var ratSpellings = []string{
	"0", "-0", "7", "-7", "007", "-007", "3/8", "-3/8", "6/16", "-0/5", "0/1",
	"12/1", "10/20", "1/0", "0/0", "1/-2", "+1", "--1", "-", "", "/", "5/", "/5",
	"1/2/3", "07/8", "08/1", "1/08", "1/010", "00/1", "0x1A", "0b11/1", "1_000",
	"999999999999999999", "-999999999999999999", "1000000000000000000",
	"999999999999999999/999999999999999998", "1/1000000000000000000",
	"4294967296", "18446744073709551616", "0.375", "-2.5", "1e3", "3/8 ", " 3/8", "٣",
}

// checkSetRatBytes is SetRatBytes' contract on one input: the outcome and
// the value of big.Rat.SetString.
func checkSetRatBytes(t *testing.T, s string) {
	t.Helper()
	var want big.Rat
	_, wantOK := want.SetString(s)
	var got big.Rat
	word := make([]big.Word, 1)
	if ok := SetRatBytes(&got, []byte(s), word); ok != wantOK {
		t.Fatalf("SetRatBytes(%q) = %v, SetString says %v", s, ok, wantOK)
	} else if ok && (got.Cmp(&want) != 0 || got.RatString() != want.RatString()) {
		t.Fatalf("SetRatBytes(%q) = %s, SetString says %s", s, got.RatString(), want.RatString())
	}
}

func TestSetRatBytes(t *testing.T) {
	for _, s := range ratSpellings {
		checkSetRatBytes(t, s)
	}
	// A whole number lives in its word: two Rats read through distinct
	// words stay independent, and setting one leaves the other alone.
	words := make([]big.Word, 2)
	var a, b big.Rat
	SetRatBytes(&a, []byte("41"), words[0:1:1])
	SetRatBytes(&b, []byte("-42"), words[1:2:2])
	if words[0] != 41 || words[1] != 42 {
		t.Fatalf("words = %v, want the magnitudes [41 42]", words)
	}
	a.SetInt64(1 << 40)
	if b.RatString() != "-42" {
		t.Fatalf("setting a changed b to %s", b.RatString())
	}
	if n := testing.AllocsPerRun(100, func() { SetRatBytes(new(big.Rat), []byte("-12345"), words[0:1:1]) }); n > 1 {
		t.Fatalf("a whole number costs %v allocations beyond its Rat, want 0", n-1)
	}
}

// FuzzSetRatBytes holds SetRatBytes to big.Rat.SetString on every input:
// the same outcome and value, never a different one. An exponent goes to
// SetString on both sides, so inputs with one are skipped: they would
// only keep the fuzzer computing huge powers of ten.
func FuzzSetRatBytes(f *testing.F) {
	for _, s := range ratSpellings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if strings.ContainsAny(s, "eEpP") {
			return
		}
		checkSetRatBytes(t, s)
	})
}
