package rationality_test

import (
	"context"
	"fmt"
	"log"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/numeric"
	"rationality/internal/proof"
	"rationality/internal/quorum"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// Example_quickstart walks the whole rationality-authority loop on a tiny
// game: an inventor announces the Prisoner's Dilemma with a provably
// optimal advice, a panel of three verifiers checks the §3 enumeration
// certificate, and the agent adopts the advice only after the majority
// accepts. A second round shows a forging inventor being caught and
// reported.
func Example_quickstart() {
	// The game: Prisoner's Dilemma. Payoffs are exact rationals.
	g, err := game.New("prisoners-dilemma", []int{2, 2})
	if err != nil {
		log.Fatal(err)
	}
	g.SetPayoffs(game.Profile{0, 0}, numeric.I(3), numeric.I(3))
	g.SetPayoffs(game.Profile{0, 1}, numeric.I(0), numeric.I(5))
	g.SetPayoffs(game.Profile{1, 0}, numeric.I(5), numeric.I(0))
	g.SetPayoffs(game.Profile{1, 1}, numeric.I(1), numeric.I(1))

	// The honest inventor: compute the maximal equilibrium and prove it.
	ann, err := core.AnnounceEnumeration("acme-games", g, proof.MaxNash)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("inventor announces", g.Name(), "with advice + proof, format", ann.Format)

	// Three independent verifiers sell their checking procedures: each is
	// the verification service `authority verifier` runs, dialed in process.
	var members []quorum.Member
	for _, id := range []string{"verify-corp", "proofs-r-us", "checkmate-ltd"} {
		vs, err := service.New(service.Config{ID: id})
		if err != nil {
			log.Fatal(err)
		}
		defer vs.Close()
		members = append(members, quorum.Member{ID: id, Client: transport.DialInProc(vs)})
	}
	registry := reputation.NewRegistry()
	panel, err := quorum.New(quorum.Config{Members: members, Registry: registry})
	if err != nil {
		log.Fatal(err)
	}

	// The agent fetches the announcement, has the panel verify it, and
	// only then acts.
	res := consult(ann, panel)
	fmt.Printf("majority verdict: accepted=%v (%d verifiers)\n", res.Accepted, len(res.Votes))
	for _, v := range res.Votes {
		fmt.Printf("  %-14s accepted=%v steps=%s\n", v.VerifierID, v.Verdict.Accepted, v.Verdict.Details["steps"])
	}

	// Round two: a forging inventor advises mutual cooperation, which is NOT
	// an equilibrium. The verifiers catch it; the panel reports the forger.
	forged, err := core.AnnounceEnumerationForged("shady-games", g, game.Profile{0, 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forged advice accepted=%v\n", consult(forged, panel).Accepted)
	fmt.Printf("shady-games reputation after audit: %.2f\n", registry.Reputation("shady-games"))
	for _, e := range registry.Events() {
		if e.Details != "" {
			fmt.Printf("audit log: [%s] %s: %s\n", e.Kind, e.Party, e.Details)
		}
	}
	// Output:
	// inventor announces prisoners-dilemma with advice + proof, format enumeration-nash/v1
	// majority verdict: accepted=true (3 verifiers)
	//   checkmate-ltd  accepted=true steps=4
	//   proofs-r-us    accepted=true steps=4
	//   verify-corp    accepted=true steps=4
	// forged advice accepted=false
	// shady-games reputation after audit: 0.33
	// audit log: [misbehaved] shady-games: quorum of 3 verifiers rejected the enumeration-nash/v1 proof (0 dissents)
}

// consult is the agent's side of Fig. 1: an inventor serves ann, the agent
// fetches it and has the panel vote on it.
func consult(ann core.Announcement, panel *quorum.Client) *quorum.Result {
	inventor, err := core.NewInventorService(ann)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	announced, err := core.FetchAnnouncement(ctx, transport.DialInProc(inventor))
	if err != nil {
		log.Fatal(err)
	}
	res, err := panel.VerifyAnnouncement(ctx, announced)
	if err != nil {
		log.Fatal(err)
	}
	return res
}
