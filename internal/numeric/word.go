package numeric

import (
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Field is the arithmetic a verification kernel is written against, in
// big.Rat's own method shapes, so that one kernel runs on *big.Rat and on
// *Q, and both spell every value alike.
type Field[T any] interface {
	*T
	Set(x *T) *T
	SetInt64(x int64) *T
	SetFrac64(a, b int64) *T
	Add(x, y *T) *T
	Sub(x, y *T) *T
	Mul(x, y *T) *T
	Cmp(y *T) int
	Sign() int
	RatString() string
}

// Q is an exact rational in machine words: num/den in lowest terms, den > 0,
// |num| and den at most MaxInt64; the zero value is 0. Sums and products are
// formed in 128 bits, and an operation whose result does not fit panics with
// a value only Fits recovers: run Q arithmetic under Fits, and redo the work
// on big.Rat when it reports false.
type Q struct{ num, den int64 } // den 0 reads as 1

type overflow struct{}

// Fits runs fn and reports whether every Q operation in it fit in machine
// words. Any other panic passes through.
func Fits(fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, over := r.(overflow); !over {
				panic(r)
			}
			ok = false
		}
	}()
	fn()
	return true
}

// Abandon ends the word arithmetic Fits is running, as an overflow does:
// for a case the machine-word path does not cover.
func Abandon() { panic(overflow{}) }

func (x *Q) d() int64 {
	if x.den == 0 {
		return 1
	}
	return x.den
}

// Set sets z to x and returns z.
func (z *Q) Set(x *Q) *Q { *z = *x; return z }

// SetInt64 sets z to x and returns z.
func (z *Q) SetInt64(x int64) *Q {
	if x == math.MinInt64 {
		panic(overflow{})
	}
	*z = Q{x, 1}
	return z
}

// SetFrac64 sets z to a/b and returns z. It panics if b == 0.
func (z *Q) SetFrac64(a, b int64) *Q {
	if b == 0 {
		panic("numeric: division by zero")
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		panic(overflow{})
	}
	if b < 0 {
		a, b = -a, -b
	}
	g := int64(gcd(uint64(abs(a)), uint64(b)))
	*z = Q{a / g, b / g}
	return z
}

// Add sets z to x+y and returns z.
func (z *Q) Add(x, y *Q) *Q {
	b, d := x.d(), y.d()
	if b == 1 && d == 1 {
		*z = Q{mul(x.num, 1).add(mul(y.num, 1)).fit(), 1}
		return z
	}
	if b == d {
		return z.SetFrac64(mul(x.num, 1).add(mul(y.num, 1)).fit(), b)
	}
	g := int64(gcd(uint64(b), uint64(d)))
	n := mul(x.num, d/g).add(mul(y.num, b/g)).fit()
	return z.SetFrac64(n, mul(b, d/g).fit())
}

// Sub sets z to x-y and returns z.
func (z *Q) Sub(x, y *Q) *Q {
	neg := Q{-y.num, y.d()}
	return z.Add(x, &neg)
}

// Mul sets z to x·y and returns z.
func (z *Q) Mul(x, y *Q) *Q {
	a, b, c, d := x.num, x.d(), y.num, y.d()
	if b == 1 && d == 1 {
		*z = Q{mul(a, c).fit(), 1}
		return z
	}
	g1 := int64(gcd(uint64(abs(a)), uint64(d)))
	g2 := int64(gcd(uint64(abs(c)), uint64(b)))
	*z = Q{mul(a/g1, c/g2).fit(), mul(b/g2, d/g1).fit()}
	return z
}

// Cmp compares x and y: -1, 0 or +1.
func (x *Q) Cmp(y *Q) int { return mul(x.num, y.d()).add(mul(-y.num, x.d())).sign() }

// Sign returns -1, 0 or +1 by the sign of x.
func (x *Q) Sign() int {
	switch {
	case x.num < 0:
		return -1
	case x.num > 0:
		return 1
	}
	return 0
}

// RatString spells x as big.Rat.RatString does: "a/b", or "a" when b is 1.
func (x *Q) RatString() string {
	if x.d() == 1 {
		return strconv.FormatInt(x.num, 10)
	}
	var buf [40]byte
	b := strconv.AppendInt(buf[:0], x.num, 10)
	return string(strconv.AppendInt(append(b, '/'), x.den, 10))
}

// ParseQ reads a rational written -?[0-9]+(/[0-9]+)?, its terms at most 18
// digits, as SetRatBytes reads one in machine words; ok is false for any
// other spelling.
func ParseQ(s []byte) (q Q, ok bool) {
	num, den, ok := smallRat(s)
	if ok {
		q = Q{int64(num), int64(den)}
		if s[0] == '-' {
			q.num = -q.num
		}
	}
	return q, ok
}

// JoinRats spells vals as Vec.String does: "(a, b, c)".
func JoinRats[T any, P Field[T]](vals []T) string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i := range vals {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(P(&vals[i]).RatString())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Stochastic is Vec.IsStochastic over a Field: every element in [0, 1],
// summing to exactly 1.
func Stochastic[T any, P Field[T]](vals []T) bool {
	var one, sum T
	P(&one).SetInt64(1)
	for i := range vals {
		if e := P(&vals[i]); e.Sign() < 0 || e.Cmp(&one) > 0 {
			return false
		}
		P(&sum).Add(&sum, &vals[i])
	}
	return P(&sum).Cmp(&one) == 0
}

// Support is Vec.Support over a Field: the indices of the non-zero
// elements, in order.
func Support[T any, P Field[T]](vals []T) []int {
	var support []int
	for i := range vals {
		if P(&vals[i]).Sign() != 0 {
			support = append(support, i)
		}
	}
	return support
}

// SolveWords is Solve on machine words for the system A·x = b, A
// rows×cols row-major: the same fraction-free elimination, its minors
// int64 and their products formed in 128 bits. Each minor is checked as it
// is formed, so no bound is needed beforehand: a scaled row or minor that
// does not fit panics as Q does. It returns one solution (free variables
// zero) and whether it is unique, or consistent=false.
func SolveWords(a, b []Q, rows, cols int) (x []Q, unique, consistent bool) {
	w := cols + 1
	m := make([]int64, rows*w) // [A | b], each row scaled to integers
	for i := 0; i < rows; i++ {
		entry := func(j int) *Q {
			if j < cols {
				return &a[i*cols+j]
			}
			return &b[i]
		}
		scale := int64(1)
		for j := 0; j < w; j++ {
			d := entry(j).d()
			scale = mul(scale, d/int64(gcd(uint64(scale), uint64(d)))).fit()
		}
		for j := 0; j < w; j++ {
			m[i*w+j] = mul(entry(j).num, scale/entry(j).d()).fit()
		}
	}
	var pivotCols []int
	prev := int64(1)
	row := 0
	for col := 0; col < cols && row < rows; col++ {
		pivot := row
		for pivot < rows && m[pivot*w+col] == 0 {
			pivot++
		}
		if pivot == rows {
			continue
		}
		for j := col; j < w; j++ {
			m[row*w+j], m[pivot*w+j] = m[pivot*w+j], m[row*w+j]
		}
		p := m[row*w+col]
		for r := row + 1; r < rows; r++ {
			f := m[r*w+col]
			for j := col + 1; j < w; j++ {
				m[r*w+j] = mul(m[r*w+j], p).add(mul(-f, m[row*w+j])).quo(prev)
			}
			m[r*w+col] = 0
		}
		prev = p
		pivotCols = append(pivotCols, col)
		row++
	}
	rank := len(pivotCols)
	for i := rank; i < rows; i++ {
		if m[i*w+cols] != 0 {
			return nil, false, false
		}
	}
	d := prev
	y := make([]int64, cols)
	for r := rank - 1; r >= 0; r-- {
		acc := mul(d, m[r*w+cols])
		for _, c := range pivotCols[r+1:] {
			acc = acc.add(mul(-m[r*w+c], y[c]))
		}
		y[pivotCols[r]] = acc.quo(m[r*w+pivotCols[r]])
	}
	x = make([]Q, cols)
	for _, c := range pivotCols {
		x[c].SetFrac64(y[c], d)
	}
	return x, rank == cols, true
}

// i128 is a two's-complement 128-bit integer: the exact product of two
// words, or a sum of such products.
type i128 struct{ hi, lo uint64 }

func abs(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// mul returns a·b exactly; a and b are never MinInt64, so it fits.
func mul(a, b int64) i128 {
	hi, lo := bits.Mul64(uint64(abs(a)), uint64(abs(b)))
	if (a < 0) != (b < 0) {
		return i128{hi, lo}.neg()
	}
	return i128{hi, lo}
}

func (x i128) neg() i128 {
	lo, borrow := bits.Sub64(0, x.lo, 0)
	hi, _ := bits.Sub64(0, x.hi, borrow)
	return i128{hi, lo}
}

func (x i128) sign() int {
	switch {
	case int64(x.hi) < 0:
		return -1
	case x.hi == 0 && x.lo == 0:
		return 0
	}
	return 1
}

// add returns x+y, panicking on a signed overflow.
func (x i128) add(y i128) i128 {
	lo, carry := bits.Add64(x.lo, y.lo, 0)
	hi, _ := bits.Add64(x.hi, y.hi, carry)
	if s := int64(hi) < 0; (int64(x.hi) < 0) == (int64(y.hi) < 0) && s != (int64(x.hi) < 0) {
		panic(overflow{})
	}
	return i128{hi, lo}
}

// magnitude returns |x| as a word pair and whether x is negative.
func (x i128) magnitude() (hi, lo uint64, neg bool) {
	if x.sign() < 0 {
		x = x.neg() // -2¹²⁷ stays negative, and fits nothing below
		return x.hi, x.lo, true
	}
	return x.hi, x.lo, false
}

// fit returns x as a word, panicking unless |x| <= MaxInt64.
func (x i128) fit() int64 {
	hi, lo, neg := x.magnitude()
	if hi != 0 || lo > math.MaxInt64 {
		panic(overflow{})
	}
	if neg {
		return -int64(lo)
	}
	return int64(lo)
}

// quo returns x/d for a division the algebra makes exact, panicking when
// the quotient does not fit or the division is not exact after all.
func (x i128) quo(d int64) int64 {
	hi, lo, neg := x.magnitude()
	if hi >= uint64(abs(d)) { // also when hi has the top bit: -2¹²⁷
		panic(overflow{})
	}
	q, r := bits.Div64(hi, lo, uint64(abs(d)))
	if r != 0 || q > math.MaxInt64 {
		panic(overflow{})
	}
	if neg != (d < 0) {
		return -int64(q)
	}
	return int64(q)
}

// gcd is Stein's binary GCD; gcd(0, b) is b.
func gcd(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return a | b
	}
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
	}
	return a << shift
}
