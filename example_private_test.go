package rationality_test

import (
	"crypto/rand"
	"fmt"
	"log"
	mathrand "math/rand"

	"rationality/internal/bimatrix"
	"rationality/internal/interactive"
)

// Example_private demonstrates §4's privacy-preserving verification. The
// inventor computes a mixed equilibrium of a bimatrix game (PPAD-hard in
// general); protocol P1 then verifies it in polynomial time from the
// supports alone, and protocol P2 verifies it while revealing NOTHING about
// the other agent's support or probabilities beyond a few committed
// membership bits — the paper's zero-knowledge-style guarantee (Remark 2).
// A lying prover is caught by the commitment check.
func Example_private() {
	// The paper's Fig. 5 game.
	g := bimatrix.FromInts(
		[][]int64{{1, 1}, {0, 2}},
		[][]int64{{1, 1}, {1, 0}},
	)

	// Inventor side: the hard computation.
	advice, eq, err := interactive.BuildP1Advice(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inventor found an equilibrium: x=%s y=%s λ1=%s λ2=%s\n",
		eq.X, eq.Y, eq.LambdaRow.RatString(), eq.LambdaCol.RatString())

	// P1: both supports are revealed; each agent recovers the equilibrium by
	// solving the Fig. 3 linear system. Communication is n+m bits.
	recovered, err := interactive.VerifyP1(g, advice)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P1 verified in polynomial time from %d bits on the wire: λ1=%s λ2=%s\n",
		advice.BitsOnWire(), recovered.LambdaRow.RatString(), recovered.LambdaCol.RatString())

	// P2: the row agent learns only its own side plus the values; the column
	// support stays hidden behind hash commitments opened per random query.
	prover, err := interactive.NewHonestProver(g, eq, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	report, err := interactive.VerifyP2(g, interactive.RowAgent, prover, interactive.P2Config{
		Rng: mathrand.New(mathrand.NewSource(2026)),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P2 verified privately: %d queries, %d conclusive, %d of %d opponent bits revealed\n",
		report.Queries, report.Conclusive, report.RevealedIndices, g.Cols())

	// Remark 2's point: the row agent cannot reconstruct the column mix. Any
	// qD <= 1/2 is consistent with everything it saw.
	fmt.Println("Remark 2: with S1={A}, λ1=λ2=1, every column mix with qD <= 1/2 is consistent —")
	fmt.Println("the verifier accepted without learning which one the column agent plays.")

	// A prover that tries to adapt its membership answers after seeing the
	// queries is caught by the commitments.
	liar := &interactive.EquivocatingProver{HonestProver: prover}
	_, err = interactive.VerifyP2(g, interactive.RowAgent, liar, interactive.P2Config{
		Rng: mathrand.New(mathrand.NewSource(7)),
	})
	fmt.Println("equivocating prover rejected:", err)
	// Output:
	// inventor found an equilibrium: x=(1, 0) y=(1, 0) λ1=1 λ2=1
	// P1 verified in polynomial time from 4 bits on the wire: λ1=1 λ2=1
	// P2 verified privately: 2 queries, 1 conclusive, 2 of 2 opponent bits revealed
	// Remark 2: with S1={A}, λ1=λ2=1, every column mix with qD <= 1/2 is consistent —
	// the verifier accepted without learning which one the column agent plays.
	// equivocating prover rejected: P2 verifier rejected the advice: membership opening for index 0 is invalid: commitment: opening does not match commitment
}
