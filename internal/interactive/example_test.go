package interactive_test

import (
	"fmt"

	"rationality/internal/bimatrix"
	"rationality/internal/interactive"
)

// ExampleVerifyP1 shows §4's protocol P1: the inventor computes a mixed
// equilibrium (hard) and reveals only the supports; the verifier recovers
// the equilibrium in polynomial time by solving the indifference system.
func ExampleVerifyP1() {
	matchingPennies := bimatrix.FromInts(
		[][]int64{{1, -1}, {-1, 1}},
		[][]int64{{-1, 1}, {1, -1}},
	)
	advice, _, err := interactive.BuildP1Advice(matchingPennies)
	if err != nil {
		fmt.Println("prover failed:", err)
		return
	}
	eq, err := interactive.VerifyP1(matchingPennies, advice)
	if err != nil {
		fmt.Println("rejected:", err)
		return
	}
	fmt.Printf("bits on wire: %d\n", advice.BitsOnWire())
	fmt.Printf("recovered x = %s, y = %s\n", eq.X, eq.Y)
	fmt.Printf("values: λ1 = %s, λ2 = %s\n", eq.LambdaRow.RatString(), eq.LambdaCol.RatString())
	// Output:
	// bits on wire: 4
	// recovered x = (1/2, 1/2), y = (1/2, 1/2)
	// values: λ1 = 0, λ2 = 0
}
