// Package participation implements the paper's §5 Participation game and its
// equilibrium consultant.
//
// n symmetric firms decide independently whether to enter an auction with
// participation fee c > 0 and prize value v > c:
//
//   - a firm gains v when at least k firms participate and it abstains;
//   - a firm gains v − c when at least k firms participate and it is one;
//   - a firm pays c when it participates but fewer than k firms do;
//   - everyone gains 0 when nobody participates.
//
// The game is symmetric, so by Nash's theorem it has a symmetric mixed
// equilibrium where every firm participates with the same probability p.
// Computing p requires root finding on Eq. (5)'s indifference condition —
// the inventor's job — but verifying a supplied p is a single exact
// evaluation of the conditional probabilities Ak, Bk, Ck, Dk, which is the
// rationality authority's point: advice is hard to produce, cheap to check.
//
// The online variant (§5, "On-line Participation") is in online.go.
package participation

import (
	"fmt"
	"math/big"

	"rationality/internal/numeric"
)

// Game is the Participation game ⟨n, v, c, k⟩.
type Game struct {
	n int
	k int
	v *big.Rat
	c *big.Rat
}

// New validates and constructs a Participation game. It requires
// v > c > 0 (so participating in a successful auction is worthwhile),
// n >= k >= 2 (a solo participant can never win).
func New(n, k int, v, c *big.Rat) (*Game, error) {
	if k < 2 {
		return nil, fmt.Errorf("participation: k = %d; the game needs k >= 2", k)
	}
	if n < k {
		return nil, fmt.Errorf("participation: n = %d firms cannot reach the k = %d quorum", n, k)
	}
	if c.Sign() <= 0 {
		return nil, fmt.Errorf("participation: participation fee c must be positive")
	}
	if v.Cmp(c) <= 0 {
		return nil, fmt.Errorf("participation: prize v must exceed the fee c")
	}
	return &Game{n: n, k: k, v: numeric.Copy(v), c: numeric.Copy(c)}, nil
}

// MustNew is New that panics on error.
func MustNew(n, k int, v, c *big.Rat) *Game {
	g, err := New(n, k, v, c)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of firms.
func (g *Game) N() int { return g.n }

// K returns the participation quorum.
func (g *Game) K() int { return g.k }

// V returns the prize value.
func (g *Game) V() *big.Rat { return numeric.Copy(g.v) }

// C returns the participation fee.
func (g *Game) C() *big.Rat { return numeric.Copy(g.c) }

// binomTail returns Pr[X >= lo] for X ~ Binomial(m, p), exactly.
func binomTail(m, lo int, p *big.Rat) *big.Rat {
	t := tail[big.Rat](m, lo, p)
	return &t
}

// tail is binomTail over any Field.
func tail[T any, P numeric.Field[T]](m, lo int, p *T) (total T) {
	var q, term, f T
	P(&q).Sub(P(&q).SetInt64(1), p)
	for j := max(lo, 0); j <= m; j++ {
		P(&term).SetInt64(1) // C(m, j), then times p^j·q^(m−j)
		for i := 1; i <= j; i++ {
			P(&term).Mul(&term, P(&f).SetFrac64(int64(m-j+i), int64(i)))
		}
		pow[T, P](&term, p, j)
		pow[T, P](&term, &q, m-j)
		P(&total).Add(&total, &term)
	}
	return total
}

// pow multiplies z by x^k.
func pow[T any, P numeric.Field[T]](z, x *T, k int) {
	var base T
	P(&base).Set(x)
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			P(z).Mul(z, &base)
		}
		P(&base).Mul(&base, &base)
	}
}

// Ak is Pr{at least k firms participate | f participates} when the other
// n−1 firms participate independently with probability p: the quorum needs
// at least k−1 of them.
func (g *Game) Ak(p *big.Rat) *big.Rat { return binomTail(g.n-1, g.k-1, p) }

// Bk is Pr{at most k−1 firms participate | f participates} = 1 − Ak.
func (g *Game) Bk(p *big.Rat) *big.Rat { return numeric.Sub(numeric.One(), g.Ak(p)) }

// Ck is Pr{at least k firms participate | f does not}: all k must come from
// the other n−1 firms.
func (g *Game) Ck(p *big.Rat) *big.Rat { return binomTail(g.n-1, g.k, p) }

// Dk is Pr{at most k−1 firms participate | f does not} = 1 − Ck.
func (g *Game) Dk(p *big.Rat) *big.Rat { return numeric.Sub(numeric.One(), g.Ck(p)) }

// GainAbstain is a firm's expected payoff for abstaining: v·Ck + 0·Dk.
func (g *Game) GainAbstain(p *big.Rat) *big.Rat {
	return numeric.Mul(g.v, g.Ck(p))
}

// IndifferenceGap is the left-minus-right side of Eq. (5):
// (v−c)·Ak − c·Bk − v·Ck. It is zero exactly at a symmetric equilibrium.
func (g *Game) IndifferenceGap(p *big.Rat) *big.Rat {
	gap, _ := gaps[big.Rat](g.n, g.k, g.v, g.c, p)
	return &gap
}

// gaps returns Eq. (5)'s indifference gap and the abstain gain v·Ck over
// any Field.
func gaps[T any, P numeric.Field[T]](n, k int, v, c, p *T) (gap, abstain T) {
	ak, ck := tail[T, P](n-1, k-1, p), tail[T, P](n-1, k, p)
	var vc, bk, t T
	P(&vc).Sub(v, c)
	P(&bk).Sub(P(&bk).SetInt64(1), &ak)
	P(&gap).Sub(P(&gap).Mul(&vc, &ak), P(&t).Mul(c, &bk))
	P(&abstain).Mul(v, &ck)
	P(&gap).Sub(&gap, &abstain)
	return gap, abstain
}

// PivotGap is the algebraically simplified gap
// v·C(n−1, k−1)·p^{k−1}·(1−p)^{n−k} − c, which for k = 2 is the paper's
// Eq. (4): c = v(n−1)p(1−p)^{n−2}. It must agree with IndifferenceGap for
// every p; the test suite checks this identity.
func (g *Game) PivotGap(p *big.Rat) *big.Rat {
	q := numeric.Sub(numeric.One(), p)
	pivot := numeric.Mul(g.v, numeric.Mul(numeric.Binomial(g.n-1, g.k-1),
		numeric.Mul(numeric.Pow(p, g.k-1), numeric.Pow(q, g.n-g.k))))
	return numeric.Sub(pivot, g.c)
}

// VerifyAdvice is the agent-side verifier of §5: given the inventor's
// advised probability p it asserts Eq. (5) exactly. On success it returns
// the firm's expected equilibrium gain (v·Ck, the abstain side of the
// indifference). It rejects p outside (0, 1) — the symmetric equilibrium of
// interest is interior — and any p that does not satisfy the indifference.
func (g *Game) VerifyAdvice(p *big.Rat) (*big.Rat, error) {
	_, gain, err := verify[big.Rat](g.n, g.k, g.v, g.c, p, nil)
	if err != nil {
		return nil, err
	}
	return &gain, nil
}

// VerifyAdviceApprox accepts p whose indifference gap is within tol in
// absolute value, returning the gap. Inventors that compute p by numeric
// root finding cannot always land on an exact rational root; the agent
// decides how much slack to accept (tol = 0 reproduces VerifyAdvice).
func (g *Game) VerifyAdviceApprox(p, tol *big.Rat) (*big.Rat, error) {
	gap, _, err := verify[big.Rat](g.n, g.k, g.v, g.c, p, tol)
	if err != nil {
		return nil, err
	}
	return &gap, nil
}

// VerifyWords is New's checks, then VerifyAdviceApprox when tol is not nil
// and VerifyAdvice when it is, on machine words: it returns the gap and the
// abstain gain v·Ck. Run it under numeric.Fits; a game New would refuse
// leaves the words.
func VerifyWords(n, k int, v, c, p, tol *numeric.Q) (gap, gain numeric.Q, err error) {
	if k < 2 || n < k || c.Sign() <= 0 || v.Cmp(c) <= 0 {
		numeric.Abandon()
	}
	return verify[numeric.Q](n, k, v, c, p, tol)
}

func verify[T any, P numeric.Field[T]](n, k int, v, c, p, tol *T) (gap, gain T, err error) {
	var one T
	if tol != nil && P(tol).Sign() < 0 {
		return gap, gain, fmt.Errorf("participation: negative tolerance")
	}
	if P(p).Sign() <= 0 || P(p).Cmp(P(&one).SetInt64(1)) >= 0 {
		return gap, gain, fmt.Errorf("participation: advised probability %s outside (0, 1)", P(p).RatString())
	}
	gap, gain = gaps[T, P](n, k, v, c, p)
	switch {
	case tol == nil && P(&gap).Sign() != 0:
		err = fmt.Errorf("participation: advised p = %s violates the indifference condition by %s",
			P(p).RatString(), P(&gap).RatString())
	case tol != nil:
		var abs T
		if P(&abs).Set(&gap); P(&abs).Sign() < 0 {
			P(&abs).Sub(P(&one).SetInt64(0), &gap) // one's storage, reused
		}
		if P(&abs).Cmp(tol) > 0 {
			err = fmt.Errorf("participation: advised p = %s violates the indifference condition by %s (tolerance %s)",
				P(p).RatString(), P(&gap).RatString(), P(tol).RatString())
		}
	}
	return gap, gain, err
}
