// Package interactive implements the paper's §4 interactive proofs:
//
//   - P1 (Fig. 3): the prover reveals both equilibrium supports; each agent's
//     verifier solves the linear indifference system to recover the Nash
//     probabilities and checks feasibility and optimality in polynomial time
//     (Lemma 1: verifier time LP(n, m), O(n+m) communicated bits).
//   - P2 (Fig. 4): the prover reveals to each agent only its own support and
//     probabilities plus the equilibrium values λ1, λ2, and answers random
//     support-membership queries about the other agent. The test is
//     conclusive as soon as a queried index lies in the hidden support, so
//     O(n) queries suffice on average and O(1) for Θ(n)-size supports
//     (Remark 3). Membership answers are bound by upfront hash commitments,
//     giving the zero-knowledge-style privacy the paper describes: the
//     verifier never learns the other agent's support or probabilities
//     beyond the queried bits (Remark 2).
//
// The package also implements Remark 1's n-agent generalization, where the
// prover supplies supports and probabilities for all agents and each
// verifier checks the (polynomial) indifference system directly.
package interactive

import (
	"errors"
	"fmt"
	"math/big"

	"rationality/internal/bimatrix"
	"rationality/internal/numeric"
)

// RejectionError explains why a verifier rejected the prover's advice. The
// agent can forward it to the reputation system as evidence.
type RejectionError struct {
	Protocol string // "P1", "P2", "Pn"
	Reason   string
}

func (e *RejectionError) Error() string {
	return fmt.Sprintf("%s verifier rejected the advice: %s", e.Protocol, e.Reason)
}

func rejectP(protocol, format string, args ...any) error {
	return &RejectionError{Protocol: protocol, Reason: fmt.Sprintf(format, args...)}
}

// P1Advice is the prover's message in protocol P1: the two equilibrium
// supports, encodable as an n-bit plus an m-bit vector (Lemma 1's O(n+m)
// communication).
type P1Advice struct {
	RowSupport []int `json:"rowSupport"`
	ColSupport []int `json:"colSupport"`
	// Rows and Cols carry the game dimensions so the message is
	// self-describing on the wire.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
}

// BitsOnWire returns the size of the advice in the paper's accounting: one
// membership bit per pure strategy of each agent.
func (a *P1Advice) BitsOnWire() int { return a.Rows + a.Cols }

// BuildP1Advice is the prover side of P1: the (game inventor's) possibly
// intractable equilibrium computation, reduced to its supports.
func BuildP1Advice(g *bimatrix.Game) (*P1Advice, *bimatrix.Equilibrium, error) {
	eq, err := g.FindEquilibrium()
	if err != nil {
		return nil, nil, fmt.Errorf("interactive: prover cannot find an equilibrium: %w", err)
	}
	return AdviceFromEquilibrium(g, eq), eq, nil
}

// AdviceFromEquilibrium extracts the P1 message from a known equilibrium
// (e.g. one observed statistically, as the paper's introduction suggests).
func AdviceFromEquilibrium(g *bimatrix.Game, eq *bimatrix.Equilibrium) *P1Advice {
	return &P1Advice{
		RowSupport: eq.X.Support(),
		ColSupport: eq.Y.Support(),
		Rows:       g.Rows(),
		Cols:       g.Cols(),
	}
}

// VerifyP1Row is the row agent's verifier of Fig. 3. Given the supports it
// solves linear system (1) — for every row i ∈ S1, the expected gain
// Σ_{j∈S2} y_j·A(i,j) equals λ1, and Σ y_j = 1 — and then checks that the
// recovered y is a probability vector and that every row outside S1 earns at
// most λ1. It returns the column agent's Nash probabilities and λ1.
func VerifyP1Row(g *bimatrix.Game, advice *P1Advice) (*numeric.Vec, *big.Rat, error) {
	if err := checkAdviceShape(g, advice); err != nil {
		return nil, nil, err
	}
	a, _ := g.Payoffs()
	y, lambda1, err := solveIndifference(a, advice.RowSupport, advice.ColSupport, false)
	if err != nil {
		return nil, nil, err
	}
	return y, lambda1, nil
}

// VerifyP1Col is the column agent's verifier, symmetric to VerifyP1Row: it
// recovers the row agent's Nash probabilities x and λ2 from B.
func VerifyP1Col(g *bimatrix.Game, advice *P1Advice) (*numeric.Vec, *big.Rat, error) {
	if err := checkAdviceShape(g, advice); err != nil {
		return nil, nil, err
	}
	_, b := g.Payoffs()
	x, lambda2, err := solveIndifference(b, advice.ColSupport, advice.RowSupport, true)
	if err != nil {
		return nil, nil, err
	}
	return x, lambda2, nil
}

// VerifyP1 runs both agents' verifiers and cross-checks that the recovered
// profile is a Nash equilibrium of the game, returning it with both values.
func VerifyP1(g *bimatrix.Game, advice *P1Advice) (*bimatrix.Equilibrium, error) {
	y, lambda1, err := VerifyP1Row(g, advice)
	if err != nil {
		return nil, err
	}
	x, lambda2, err := VerifyP1Col(g, advice)
	if err != nil {
		return nil, err
	}
	p := bimatrix.Profile{X: x, Y: y}
	if !g.IsEquilibrium(p) {
		return nil, rejectP("P1", "recovered profile is not an equilibrium")
	}
	return &bimatrix.Equilibrium{Profile: p, LambdaRow: lambda1, LambdaCol: lambda2}, nil
}

func checkAdviceShape(g *bimatrix.Game, advice *P1Advice) error {
	if advice == nil {
		return rejectP("P1", "nil advice")
	}
	if advice.Rows != g.Rows() || advice.Cols != g.Cols() {
		return rejectP("P1", "advice is for a %dx%d game; this game is %dx%d",
			advice.Rows, advice.Cols, g.Rows(), g.Cols())
	}
	if err := checkSupport(advice.RowSupport, g.Rows()); err != nil {
		return rejectP("P1", "row support: %v", err)
	}
	if err := checkSupport(advice.ColSupport, g.Cols()); err != nil {
		return rejectP("P1", "column support: %v", err)
	}
	return nil
}

func checkSupport(s []int, limit int) error {
	if len(s) == 0 {
		return errors.New("empty")
	}
	seen := make(map[int]bool, len(s))
	for _, i := range s {
		if i < 0 || i >= limit {
			return fmt.Errorf("index %d out of range [0, %d)", i, limit)
		}
		if seen[i] {
			return fmt.Errorf("index %d repeated", i)
		}
		seen[i] = true
	}
	return nil
}

// solveIndifference solves Fig. 3's system for one side. With
// transposed == false it recovers the column mix y over colSupport that
// makes every row in rowSupport indifferent at value λ using matrix rows;
// with transposed == true the roles of the index sets are swapped and
// payoffs are read down columns (recovering the row mix x from B).
//
// The solver first attempts fraction-free elimination on the square-ish
// system exactly as in Lemma 1. When the system is underdetermined (a
// degenerate game), it falls back to exact LP feasibility so that a valid
// advice is never rejected for degeneracy.
func solveIndifference(payoff *numeric.Matrix, eqSupport, mixSupport []int, transposed bool) (*numeric.Vec, *big.Rat, error) {
	k := len(mixSupport)
	at := func(strat, t int) *big.Rat {
		if transposed {
			return payoff.Ref(mixSupport[t], strat)
		}
		return payoff.Ref(strat, mixSupport[t])
	}
	outDim := payoff.Cols()
	total := payoff.Rows()
	if transposed {
		outDim = payoff.Rows()
		total = payoff.Cols()
	}

	// Unknowns: y_{mixSupport[0..k-1]}, λ. Equations: one per eqSupport row
	// plus normalization.
	sys := numeric.NewMatrix(len(eqSupport)+1, k+1)
	rhs := numeric.NewVec(len(eqSupport) + 1)
	for r, strat := range eqSupport {
		for t := 0; t < k; t++ {
			sys.SetAt(r, t, at(strat, t))
		}
		sys.SetAt(r, k, numeric.I(-1)) // −λ
	}
	for t := 0; t < k; t++ {
		sys.SetAt(len(eqSupport), t, numeric.One())
	}
	rhs.SetAt(len(eqSupport), numeric.One())

	var mix *numeric.Vec
	var lambda *big.Rat
	sol, err := numeric.Solve(sys, rhs)
	switch {
	case err != nil:
		return nil, nil, rejectP("P1", "indifference system is inconsistent: the supports admit no equilibrium")
	case sol.Unique:
		mix = numeric.NewVec(outDim)
		for t, idx := range mixSupport {
			mix.SetAt(idx, sol.X.Ref(t))
		}
		lambda = sol.X.Ref(k) // sol is ours: λ needs no copy
	default:
		mix, lambda, err = lpCompletion(payoff, eqSupport, mixSupport, transposed, outDim, total)
		if err != nil {
			return nil, nil, err
		}
	}

	// Feasibility: 0 <= y_t <= 1 on the support.
	one := numeric.One()
	for _, idx := range mixSupport {
		v := mix.Ref(idx)
		if v.Sign() < 0 || numeric.Gt(v, one) {
			return nil, nil, rejectP("P1", "recovered probability %s for strategy %d is outside [0, 1]",
				v.RatString(), idx)
		}
	}
	// Optimality: strategies outside eqSupport earn at most λ.
	inEq := make([]bool, total)
	for _, s := range eqSupport {
		inEq[s] = true
	}
	acc := new(big.Rat)
	term := new(big.Rat)
	for strat := 0; strat < total; strat++ {
		if inEq[strat] {
			continue
		}
		acc.SetInt64(0)
		for t := 0; t < k; t++ {
			term.Mul(at(strat, t), mix.Ref(mixSupport[t]))
			acc.Add(acc, term)
		}
		if acc.Cmp(lambda) > 0 {
			return nil, nil, rejectP("P1", "off-support strategy %d earns %s > λ = %s",
				strat, acc.RatString(), lambda.RatString())
		}
	}
	return mix, lambda, nil
}

// lpCompletion resolves a degenerate (underdetermined) indifference system
// by exact LP feasibility over the same constraints plus the off-support
// dominance inequalities.
func lpCompletion(payoff *numeric.Matrix, eqSupport, mixSupport []int, transposed bool, outDim, total int) (*numeric.Vec, *big.Rat, error) {
	k := len(mixSupport)
	at := func(strat, t int) *big.Rat {
		if transposed {
			return payoff.Ref(mixSupport[t], strat)
		}
		return payoff.Ref(strat, mixSupport[t])
	}
	inEq := make(map[int]bool, len(eqSupport))
	for _, s := range eqSupport {
		inEq[s] = true
	}

	// Vars: k mix probabilities, λ⁺, λ⁻.
	lp := &numeric.LP{NumVars: k + 2}
	for strat := 0; strat < total; strat++ {
		row := numeric.NewVec(k + 2)
		for t := 0; t < k; t++ {
			row.SetAt(t, at(strat, t))
		}
		row.SetAt(k, numeric.I(-1))
		row.SetAt(k+1, numeric.One())
		if inEq[strat] {
			lp.AddEQ(row, numeric.Zero())
		} else {
			lp.AddLE(row, numeric.Zero())
		}
	}
	sum := numeric.NewVec(k + 2)
	for t := 0; t < k; t++ {
		sum.SetAt(t, numeric.One())
	}
	lp.AddEQ(sum, numeric.One())

	res, err := numeric.SolveLP(lp)
	if err != nil {
		return nil, nil, err
	}
	if res.Status != numeric.Optimal {
		return nil, nil, rejectP("P1", "degenerate indifference system has no feasible completion")
	}
	mix := numeric.NewVec(outDim)
	for t, idx := range mixSupport {
		mix.SetAt(idx, res.X.At(t))
	}
	lambda := numeric.Sub(res.X.At(k), res.X.At(k+1))
	return mix, lambda, nil
}
