package proof_test

import (
	"fmt"

	"rationality/internal/game"
	"rationality/internal/numeric"
	"rationality/internal/proof"
)

// ExampleBuild shows the §3 certificate: the inventor proves the advised
// profile is a maximal pure Nash equilibrium; the checker re-derives every
// step and rejects forgeries.
func ExampleBuild() {
	g, err := game.New("prisoners-dilemma", []int{2, 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	g.SetPayoffs(game.Profile{0, 0}, numeric.I(3), numeric.I(3))
	g.SetPayoffs(game.Profile{0, 1}, numeric.I(0), numeric.I(5))
	g.SetPayoffs(game.Profile{1, 0}, numeric.I(5), numeric.I(0))
	g.SetPayoffs(game.Profile{1, 1}, numeric.I(1), numeric.I(1))

	pf, err := proof.Build(g, game.Profile{1, 1}, proof.MaxNash)
	if err != nil {
		fmt.Println("cannot prove:", err)
		return
	}
	fmt.Printf("proof steps: %d\n", pf.Steps())
	fmt.Printf("verifier accepts: %v\n", proof.Check(g, pf) == nil)

	// An honest inventor cannot prove a false claim.
	if _, err := proof.Build(g, game.Profile{0, 0}, proof.MaxNash); err != nil {
		fmt.Println("cooperation cannot be certified")
	}
	// Output:
	// proof steps: 4
	// verifier accepts: true
	// cooperation cannot be certified
}
