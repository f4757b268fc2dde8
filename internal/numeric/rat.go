// Package numeric provides exact rational arithmetic, linear algebra, and
// linear programming, on machine words where the values fit and over
// math/big rationals everywhere.
//
// All equilibrium verification in this repository is carried out with exact
// arithmetic: a verifier that accepts or rejects a proof must not be at the
// mercy of floating-point rounding. The package wraps *big.Rat with
// copy-discipline helpers (big.Rat values alias internal state, so every
// arithmetic helper here returns a freshly allocated result), dense vectors
// and matrices, fraction-free (Bareiss) elimination, and a two-phase exact
// simplex solver.
//
// Q is the machine-word rational: int64 terms in lowest terms, sums and
// products formed in 128 bits, and SolveWords is Bareiss on it. A result
// that does not fit is never wrapped: it abandons the computation, which
// Fits reports, and the caller redoes the work on big.Rat. Field is the
// method set both types share, so one generic kernel runs on either and
// spells its values alike.
//
// The borrow rule: values handed out are copies (At, Clone, every helper's
// result), and reads inside a procedure may borrow (Vec.Ref, Matrix.Ref)
// when the caller neither modifies nor retains what it borrowed.
package numeric

import (
	"fmt"
	"math/big"
)

// Rat is a convenience alias so that callers can write numeric.Rat in
// signatures without importing math/big themselves.
type Rat = big.Rat

// R returns the rational a/b. It panics if b == 0.
func R(a, b int64) *big.Rat {
	if b == 0 {
		panic("numeric: zero denominator")
	}
	return big.NewRat(a, b)
}

// I returns the rational a/1.
func I(a int64) *big.Rat {
	return big.NewRat(a, 1)
}

// Zero returns a freshly allocated zero.
func Zero() *big.Rat { return new(big.Rat) }

// One returns a freshly allocated one.
func One() *big.Rat { return big.NewRat(1, 1) }

// Copy returns a fresh copy of x.
func Copy(x *big.Rat) *big.Rat { return new(big.Rat).Set(x) }

// Add returns a+b without mutating either operand.
func Add(a, b *big.Rat) *big.Rat { return new(big.Rat).Add(a, b) }

// Sub returns a-b without mutating either operand.
func Sub(a, b *big.Rat) *big.Rat { return new(big.Rat).Sub(a, b) }

// Mul returns a*b without mutating either operand.
func Mul(a, b *big.Rat) *big.Rat { return new(big.Rat).Mul(a, b) }

// Div returns a/b without mutating either operand. It panics if b == 0.
func Div(a, b *big.Rat) *big.Rat {
	if b.Sign() == 0 {
		panic("numeric: division by zero")
	}
	return new(big.Rat).Quo(a, b)
}

// Neg returns -a without mutating the operand.
func Neg(a *big.Rat) *big.Rat { return new(big.Rat).Neg(a) }

// Eq reports whether a == b.
func Eq(a, b *big.Rat) bool { return a.Cmp(b) == 0 }

// Le reports whether a <= b.
func Le(a, b *big.Rat) bool { return a.Cmp(b) <= 0 }

// Lt reports whether a < b.
func Lt(a, b *big.Rat) bool { return a.Cmp(b) < 0 }

// Gt reports whether a > b.
func Gt(a, b *big.Rat) bool { return a.Cmp(b) > 0 }

// Pow returns x^k for k >= 0 as a fresh value. It panics on negative k.
func Pow(x *big.Rat, k int) *big.Rat {
	if k < 0 {
		panic("numeric: negative exponent")
	}
	result := One()
	base := Copy(x)
	for k > 0 {
		if k&1 == 1 {
			result.Mul(result, base)
		}
		base.Mul(base, base)
		k >>= 1
	}
	return result
}

// Binomial returns C(n, k) as a fresh rational. It returns zero when k < 0 or
// k > n.
func Binomial(n, k int) *big.Rat {
	if k < 0 || k > n {
		return Zero()
	}
	var b big.Int
	b.Binomial(int64(n), int64(k))
	return new(big.Rat).SetInt(&b)
}

// ParseRat parses a rational from a string accepted by big.Rat.SetString
// (e.g. "3/8", "0.375", "-2").
func ParseRat(s string) (*big.Rat, error) {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return nil, fmt.Errorf("numeric: cannot parse rational %q", s)
	}
	return r, nil
}

// SetRatBytes sets z, a zero Rat, to the rational s spells and reports
// whether s spells one, agreeing with z.SetString(string(s)) on every
// input. A whole number or a fraction written -?[0-9]+(/[0-9]+)?, its
// terms at most 18 digits, is read in machine words: a whole number's
// magnitude is stored in word[0], which z keeps as its numerator (so
// word, of length and capacity 1, must serve no other Rat). Anything else
// goes through SetString — another sign, a decimal point, an exponent, a
// base prefix, and a fraction's term with a leading zero, which
// SetString reads as octal.
func SetRatBytes(z *big.Rat, s []byte, word []big.Word) bool {
	num, den, ok := smallRat(s)
	if !ok {
		_, ok = z.SetString(string(s))
		return ok
	}
	if den == 1 && uint64(big.Word(num)) == num {
		word[0] = big.Word(num)
		z.Num().SetBits(word)
	} else {
		z.SetInt64(int64(num)) // gives the denominator its storage
		z.Denom().SetUint64(den)
	}
	if s[0] == '-' {
		z.Num().Neg(z.Num())
	}
	return true
}

// smallRat reads s, a rational of SetRatBytes' machine-word grammar, into
// its magnitude in lowest terms; ok is false for any other spelling.
func smallRat(s []byte) (num, den uint64, ok bool) {
	body := s
	if len(body) > 0 && body[0] == '-' {
		body = body[1:]
	}
	num, n, ok := smallTerm(body)
	den = 1
	if ok && n < len(body) {
		var m int
		den, m, ok = smallTerm(body[n+1:])
		ok = ok && body[n] == '/' && n+1+m == len(body) && den != 0 &&
			(n == 1 || body[0] != '0') && (m == 1 || body[n+1] != '0')
	}
	if !ok {
		return 0, 0, false
	}
	a, b := num, den
	for b != 0 {
		a, b = b, a%b
	}
	return num / a, den / a, true
}

// smallTerm reads the run of decimal digits b opens with: its value and
// length, or ok=false when there is none or it is longer than 18 digits.
func smallTerm(b []byte) (v uint64, n int, ok bool) {
	for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
		if n == 18 {
			return 0, 0, false
		}
		v = v*10 + uint64(b[n]-'0')
	}
	return v, n, n > 0
}

// MustRat is ParseRat that panics on error; intended for constants in tests
// and examples.
func MustRat(s string) *big.Rat {
	r, err := ParseRat(s)
	if err != nil {
		panic(err)
	}
	return r
}
