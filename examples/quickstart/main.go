// Command quickstart walks the whole rationality-authority loop on a tiny
// game: an inventor announces the Prisoner's Dilemma with a provably optimal
// advice, a panel of three verifiers checks the §3 enumeration certificate,
// and the agent adopts the advice only after the majority accepts. A second
// round shows a forging inventor being caught and reported.
package main

import (
	"context"
	"fmt"
	"os"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/numeric"
	"rationality/internal/proof"
	"rationality/internal/quorum"
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
	var members []quorum.Member
	for _, id := range []string{"verify-corp", "proofs-r-us", "checkmate-ltd"} {
		vs, err := service.New(service.Config{ID: id})
		if err != nil {
			return err
		}
		defer vs.Close()
		members = append(members, quorum.Member{ID: id, Client: transport.DialInProc(vs)})
	}
	registry := reputation.NewRegistry()
	panel, err := quorum.New(quorum.Config{Members: members, Registry: registry})
	if err != nil {
		return err
	}

	// The agent fetches the announcement, has the panel verify it, and
	// only then acts.
	res, err := consult(ann, panel)
	if err != nil {
		return err
	}
	fmt.Printf("majority verdict: accepted=%v (%d verifiers)\n", res.Accepted, len(res.Votes))
	for _, v := range res.Votes {
		fmt.Printf("  %-14s accepted=%v steps=%s\n", v.VerifierID, v.Verdict.Accepted, v.Verdict.Details["steps"])
	}

	// Round two: a forging inventor advises mutual cooperation, which is NOT
	// an equilibrium. The verifiers catch it; the panel reports the forger.
	forged, err := core.AnnounceEnumerationForged("shady-games", g, game.Profile{0, 0})
	if err != nil {
		return err
	}
	res2, err := consult(forged, panel)
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

// consult is the agent's side of Fig. 1: an inventor serves ann, the agent
// fetches it and has the panel vote on it.
func consult(ann core.Announcement, panel *quorum.Client) (*quorum.Result, error) {
	inventor, err := core.NewInventorService(ann)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	announced, err := core.FetchAnnouncement(ctx, transport.DialInProc(inventor))
	if err != nil {
		return nil, err
	}
	return panel.VerifyAnnouncement(ctx, announced)
}
