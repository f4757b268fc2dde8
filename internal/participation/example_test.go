package participation_test

import (
	"fmt"

	"rationality/internal/numeric"
	"rationality/internal/participation"
)

// ExampleNew reproduces the paper's §5 worked example: with c/v = 3/8 and
// n = 3 firms, the symmetric equilibrium is p = 1/4 and the verifier
// confirms the expected gain v/16.
func ExampleNew() {
	g, err := participation.New(3, 2, numeric.I(8), numeric.I(3))
	if err != nil {
		fmt.Println(err)
		return
	}
	p, ok := g.SolveExact(participation.LowBranch, 16)
	if !ok {
		fmt.Println("no exact root")
		return
	}
	gain, err := g.VerifyAdvice(p)
	if err != nil {
		fmt.Println("rejected:", err)
		return
	}
	fmt.Printf("equilibrium p = %s\n", p.RatString())
	fmt.Printf("expected gain = %s (v/16 with v = 8)\n", gain.RatString())
	// Forged advice is rejected.
	if _, err := g.VerifyAdvice(numeric.MustRat("1/3")); err != nil {
		fmt.Println("p = 1/3 rejected")
	}
	// Output:
	// equilibrium p = 1/4
	// expected gain = 1/2 (v/16 with v = 8)
	// p = 1/3 rejected
}
