// Command quickstart walks the whole rationality-authority loop on a tiny
// game: an inventor announces the Prisoner's Dilemma with a provably optimal
// advice, three verifiers check the §3 enumeration certificate, and the
// agent adopts the advice only after the majority accepts. A second round
// shows a forging inventor being caught and reported.
package main

import (
	"context"
	"fmt"
	"os"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/numeric"
	"rationality/internal/proof"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// The game: Prisoner's Dilemma. Payoffs are exact rationals.
	g, err := game.New("prisoners-dilemma", []int{2, 2})
	if err != nil {
		return err
	}
	g.SetPayoffs(game.Profile{0, 0}, numeric.I(3), numeric.I(3))
	g.SetPayoffs(game.Profile{0, 1}, numeric.I(0), numeric.I(5))
	g.SetPayoffs(game.Profile{1, 0}, numeric.I(5), numeric.I(0))
	g.SetPayoffs(game.Profile{1, 1}, numeric.I(1), numeric.I(1))

	// The honest inventor: compute the maximal equilibrium and prove it.
	ann, err := core.AnnounceEnumeration("acme-games", g, proof.MaxNash)
	if err != nil {
		return err
	}
	fmt.Println("inventor announces", g.Name(), "with advice + proof, format", ann.Format)

	// Three independent verifiers sell their checking procedures: each is
	// the verification service `authority verifier` runs, dialed in process.
	verifiers := map[string]transport.Client{}
	for _, id := range []string{"verify-corp", "proofs-r-us", "checkmate-ltd"} {
		vs, err := service.New(service.Config{ID: id})
		if err != nil {
			return err
		}
		defer vs.Close()
		verifiers[id] = transport.DialInProc(vs)
	}

	// The agent consults, verifies, and only then acts.
	registry := reputation.NewRegistry()
	inventor, err := core.NewInventorService(ann)
	if err != nil {
		return err
	}
	agent, err := core.NewAgent(core.AgentConfig{
		Name:      "jane",
		Inventor:  transport.DialInProc(inventor),
		Verifiers: verifiers,
		Registry:  registry,
	})
	if err != nil {
		return err
	}
	res, err := agent.Consult(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("majority verdict: accepted=%v (%d verifiers)\n", res.Accepted, len(res.Verdicts))
	for id, v := range res.Verdicts {
		fmt.Printf("  %-14s accepted=%v steps=%s\n", id, v.Accepted, v.Details["steps"])
	}

	// Round two: a forging inventor advises mutual cooperation, which is NOT
	// an equilibrium. The verifiers catch it; the agent reports the forger.
	forged, err := core.AnnounceEnumerationForged("shady-games", g, game.Profile{0, 0})
	if err != nil {
		return err
	}
	shadyInventor, err := core.NewInventorService(forged)
	if err != nil {
		return err
	}
	shadyAgent, err := core.NewAgent(core.AgentConfig{
		Name:      "joe",
		Inventor:  transport.DialInProc(shadyInventor),
		Verifiers: verifiers,
		Registry:  registry,
	})
	if err != nil {
		return err
	}
	res2, err := shadyAgent.Consult(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("forged advice accepted=%v\n", res2.Accepted)
	fmt.Printf("shady-games reputation after audit: %.2f\n", registry.Reputation("shady-games"))
	for _, e := range registry.Events() {
		if e.Details != "" {
			fmt.Printf("audit log: [%s] %s: %s\n", e.Kind, e.Party, e.Details)
		}
	}
	return nil
}
