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
	if err := checkAdviceShape(g.Rows(), g.Cols(), advice); err != nil {
		return nil, nil, err
	}
	a, _ := g.Payoffs()
	return solveIndifference(a, advice.RowSupport, advice.ColSupport, false)
}

// VerifyP1Col is the column agent's verifier, symmetric to VerifyP1Row: it
// recovers the row agent's Nash probabilities x and λ2 from B.
func VerifyP1Col(g *bimatrix.Game, advice *P1Advice) (*numeric.Vec, *big.Rat, error) {
	if err := checkAdviceShape(g.Rows(), g.Cols(), advice); err != nil {
		return nil, nil, err
	}
	_, b := g.Payoffs()
	return solveIndifference(b, advice.ColSupport, advice.RowSupport, true)
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
		return nil, errNotEquilibrium
	}
	return &bimatrix.Equilibrium{Profile: p, LambdaRow: lambda1, LambdaCol: lambda2}, nil
}

var errNotEquilibrium = rejectP("P1", "recovered profile is not an equilibrium")

// P1Words is what VerifyP1Words recovers: both mixes and both values.
type P1Words struct {
	X, Y                 []numeric.Q
	LambdaRow, LambdaCol numeric.Q
}

// VerifyP1Words is VerifyP1 on machine words, for the rows×cols payoff
// matrices a and b, row-major; run it under numeric.Fits. A degenerate
// indifference system, which VerifyP1 completes by LP, leaves the words.
func VerifyP1Words(a, b []numeric.Q, rows, cols int, advice *P1Advice) (*P1Words, error) {
	if err := checkAdviceShape(rows, cols, advice); err != nil {
		return nil, err
	}
	side := func(payoff []numeric.Q, eq, mixS []int, transposed bool) ([]numeric.Q, *numeric.Q, error) {
		sys, rhs := indifference[numeric.Q](payoff, cols, eq, mixS, transposed)
		sol, unique, consistent := numeric.SolveWords(sys, rhs, len(rhs), len(mixS)+1)
		if !consistent {
			return nil, nil, errInconsistent
		}
		if !unique {
			numeric.Abandon()
		}
		mix := make([]numeric.Q, cols)
		if transposed {
			mix = make([]numeric.Q, rows)
		}
		for t, idx := range mixS {
			mix[idx] = sol[t]
		}
		lambda := &sol[len(mixS)]
		return mix, lambda, checkSide(payoff, rows, cols, eq, mixS, transposed, mix, lambda)
	}
	y, lambda1, err := side(a, advice.RowSupport, advice.ColSupport, false)
	if err != nil {
		return nil, err
	}
	x, lambda2, err := side(b, advice.ColSupport, advice.RowSupport, true)
	if err != nil {
		return nil, err
	}
	if !bimatrix.IsEquilibriumOf(a, b, rows, cols, x, y) {
		return nil, errNotEquilibrium
	}
	return &P1Words{X: x, Y: y, LambdaRow: *lambda1, LambdaCol: *lambda2}, nil
}

func checkAdviceShape(rows, cols int, advice *P1Advice) error {
	if advice == nil {
		return rejectP("P1", "nil advice")
	}
	if advice.Rows != rows || advice.Cols != cols {
		return rejectP("P1", "advice is for a %dx%d game; this game is %dx%d",
			advice.Rows, advice.Cols, rows, cols)
	}
	if err := checkSupport(advice.RowSupport, rows); err != nil {
		return rejectP("P1", "row support: %v", err)
	}
	if err := checkSupport(advice.ColSupport, cols); err != nil {
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

var errInconsistent = rejectP("P1", "indifference system is inconsistent: the supports admit no equilibrium")

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
	sys, rhs := indifference[big.Rat](payoff.Values(), payoff.Cols(), eqSupport, mixSupport, transposed)
	sol, err := numeric.Solve(numeric.MatrixOver(len(rhs), k+1, sys), numeric.VecOver(rhs))
	var mix *numeric.Vec
	var lambda *big.Rat
	switch {
	case err != nil:
		return nil, nil, errInconsistent
	case sol.Unique:
		mix = numeric.NewVec(payoff.Cols())
		if transposed {
			mix = numeric.NewVec(payoff.Rows())
		}
		for t, idx := range mixSupport {
			mix.SetAt(idx, sol.X.Ref(t))
		}
		lambda = sol.X.Ref(k) // sol is ours: λ needs no copy
	default:
		mix, lambda, err = bimatrix.SolveSide(payoff, eqSupport, mixSupport, transposed)
		if errors.Is(err, bimatrix.ErrNoEquilibrium) {
			return nil, nil, rejectP("P1", "degenerate indifference system has no feasible completion")
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return mix, lambda, checkSide(payoff.Values(), payoff.Rows(), payoff.Cols(), eqSupport, mixSupport, transposed, mix.Values(), lambda)
}

// indifference builds Fig. 3's system over any Field, payoff being a
// matrix of cols columns, row-major: unknowns the mix over mixSupport and
// λ; one equation per eqSupport strategy, and the normalization.
func indifference[T any, P numeric.Field[T]](payoff []T, cols int, eqSupport, mixSupport []int, transposed bool) (sys, rhs []T) {
	k := len(mixSupport)
	n := len(eqSupport) + 1
	sys, rhs = make([]T, n*(k+1)), make([]T, n)
	for r, strat := range eqSupport {
		for t := 0; t < k; t++ {
			P(&sys[r*(k+1)+t]).Set(at(payoff, cols, strat, mixSupport[t], transposed))
		}
		P(&sys[r*(k+1)+k]).SetInt64(-1) // −λ
	}
	for t := 0; t < k; t++ {
		P(&sys[(n-1)*(k+1)+t]).SetInt64(1)
	}
	P(&rhs[n-1]).SetInt64(1)
	return sys, rhs
}

// at is the payoff to strategy strat against the other agent's strategy
// other: payoff(strat, other), or payoff(other, strat) down columns.
func at[T any](payoff []T, cols, strat, other int, transposed bool) *T {
	if transposed {
		return &payoff[other*cols+strat]
	}
	return &payoff[strat*cols+other]
}

// checkSide checks a recovered mix (over every strategy of the responding
// agent) and λ: each probability in [0, 1], and no strategy outside
// eqSupport earning more than λ.
func checkSide[T any, P numeric.Field[T]](payoff []T, rows, cols int, eqSupport, mixSupport []int, transposed bool, mix []T, lambda *T) error {
	var one T
	P(&one).SetInt64(1)
	for _, idx := range mixSupport {
		if v := P(&mix[idx]); v.Sign() < 0 || v.Cmp(&one) > 0 {
			return rejectP("P1", "recovered probability %s for strategy %d is outside [0, 1]",
				v.RatString(), idx)
		}
	}
	total := rows
	if transposed {
		total = cols
	}
	inEq := make([]bool, total)
	for _, s := range eqSupport {
		inEq[s] = true
	}
	var acc, term T
	for strat := 0; strat < total; strat++ {
		if inEq[strat] {
			continue
		}
		P(&acc).SetInt64(0)
		for _, idx := range mixSupport {
			P(&acc).Add(&acc, P(&term).Mul(at(payoff, cols, strat, idx, transposed), &mix[idx]))
		}
		if P(&acc).Cmp(lambda) > 0 {
			return rejectP("P1", "off-support strategy %d earns %s > λ = %s",
				strat, P(&acc).RatString(), P(lambda).RatString())
		}
	}
	return nil
}
