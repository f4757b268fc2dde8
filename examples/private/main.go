// Command private demonstrates §4's privacy-preserving verification. The
// inventor computes a mixed equilibrium of a bimatrix game (PPAD-hard in
// general); protocol P1 then verifies it in polynomial time from the
// supports alone, and protocol P2 verifies it while revealing NOTHING about
// the other agent's support or probabilities beyond a few committed
// membership bits — the paper's zero-knowledge-style guarantee (Remark 2).
// A lying prover is caught by the commitment check.
package main

import (
	"crypto/rand"
	"fmt"
	mathrand "math/rand"
	"os"

	"rationality/internal/bimatrix"
	"rationality/internal/interactive"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "private:", err)
		os.Exit(1)
	}
}

func run() error {
	// The paper's Fig. 5 game.
	g := bimatrix.FromInts(
		[][]int64{{1, 1}, {0, 2}},
		[][]int64{{1, 1}, {1, 0}},
	)

	// Inventor side: the hard computation.
	advice, eq, err := interactive.BuildP1Advice(g)
	if err != nil {
		return err
	}
	fmt.Printf("inventor found an equilibrium: x=%s y=%s λ1=%s λ2=%s\n",
		eq.X, eq.Y, eq.LambdaRow.RatString(), eq.LambdaCol.RatString())

	// P1: both supports are revealed; each agent recovers the equilibrium by
	// solving the Fig. 3 linear system. Communication is n+m bits.
	recovered, err := interactive.VerifyP1(g, advice)
	if err != nil {
		return err
	}
	fmt.Printf("P1 verified in polynomial time from %d bits on the wire: λ1=%s λ2=%s\n",
		advice.BitsOnWire(), recovered.LambdaRow.RatString(), recovered.LambdaCol.RatString())

	// P2: the row agent learns only its own side plus the values; the column
	// support stays hidden behind hash commitments opened per random query.
	prover, err := interactive.NewHonestProver(g, eq, rand.Reader)
	if err != nil {
		return err
	}
	report, err := interactive.VerifyP2(g, interactive.RowAgent, prover, interactive.P2Config{
		Rng: mathrand.New(mathrand.NewSource(2026)),
	})
	if err != nil {
		return err
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
	if _, err := interactive.VerifyP2(g, interactive.RowAgent, liar, interactive.P2Config{
		Rng: mathrand.New(mathrand.NewSource(7)),
	}); err != nil {
		fmt.Println("equivocating prover rejected:", err)
	} else {
		return fmt.Errorf("equivocating prover was NOT caught")
	}
	return nil
}
