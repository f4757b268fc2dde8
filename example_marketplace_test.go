package rationality_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/identity"
	"rationality/internal/proof"
	"rationality/internal/quorum"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// Example_marketplace simulates the rationality authority as an ecosystem
// over many rounds: a mixed population of honest and forging inventors, a
// verifier pool containing one corrupt member, and a reputation-threshold
// agent. Round by round, majority voting pays honest verifiers and bleeds
// the liar until the agent stops consulting it; forging inventors are
// reported with evidence and their key-bound reputations collapse — the
// paper's "long-lasting reputation" incentive, end to end.
func Example_marketplace() {
	registry := reputation.NewRegistry()

	// The verifier pool: three honest, one corrupt. The corrupt one is the
	// same service over lying procedures — what `authority verifier
	// -byzantine` runs.
	var members []quorum.Member
	for _, id := range []string{"veritas", "checkers", "proofly", "shady-checks"} {
		cfg := service.Config{ID: id}
		if id == "shady-checks" {
			cfg.Procedures = core.NewLyingProcedureRegistry()
		}
		vs, err := service.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer vs.Close()
		members = append(members, quorum.Member{ID: id, Client: transport.DialInProc(vs)})
	}
	const threshold = 0.3
	panel, err := quorum.New(quorum.Config{Members: members, Registry: registry, Threshold: threshold})
	if err != nil {
		log.Fatal(err)
	}

	// The inventor population: two honest, one forger, each with a signing
	// identity drawn from its own fixed seed.
	type inventor struct {
		name   string
		honest bool
	}
	population := []inventor{
		{"acme-games", true},
		{"fair-auctions", true},
		{"fraud-factory", false},
	}

	pd := game.PrisonersDilemma()
	ids := map[string]string{}
	services := map[string]*core.InventorService{}
	for i, inv := range population {
		k, err := identity.NewKeyPairFrom(rand.New(rand.NewSource(int64(i + 1))))
		if err != nil {
			log.Fatal(err)
		}
		var ann core.Announcement
		if inv.honest {
			ann, err = core.AnnounceEnumeration(inv.name, pd, proof.MaxNash)
		} else {
			ann, err = core.AnnounceEnumerationForged(inv.name, pd, game.Profile{0, 0})
		}
		if err != nil {
			log.Fatal(err)
		}
		signed, err := core.SignAnnouncement(k, ann)
		if err != nil {
			log.Fatal(err)
		}
		ids[inv.name] = signed.InventorID
		svc, err := core.NewInventorService(signed)
		if err != nil {
			log.Fatal(err)
		}
		services[inv.name] = svc
	}

	const rounds = 6
	ctx := context.Background()
	for round := 1; round <= rounds; round++ {
		inv := population[(round-1)%len(population)]
		announced, err := core.FetchAnnouncement(ctx, transport.DialInProc(services[inv.name]))
		if err != nil {
			log.Fatal(err)
		}
		// Every announcement here is signed: the panel checks the signature
		// before any verifier is asked, so a rejection is charged to the
		// key that signed the forgery.
		res, err := panel.VerifyAnnouncement(ctx, announced)
		if err != nil {
			log.Fatal(err)
		}
		liarConsulted := "excluded"
		for _, v := range res.Votes {
			if v.VerifierID == "shady-checks" {
				liarConsulted = "consulted"
			}
		}
		fmt.Printf("round %d: %-13s accepted=%-5v verifiers=%d shady-checks %s\n",
			round, inv.name, res.Accepted, len(res.Votes), liarConsulted)
	}

	fmt.Println("\nfinal reputations:")
	for _, id := range []string{"veritas", "checkers", "proofly", "shady-checks"} {
		fmt.Printf("  verifier %-13s %.2f\n", id, registry.Reputation(id))
	}
	for _, inv := range population {
		fmt.Printf("  inventor %-13s %.2f (key %s...)\n",
			inv.name, registry.Reputation(ids[inv.name]), ids[inv.name][:8])
	}
	misbehaviours := 0
	for _, e := range registry.Events() {
		if e.Details != "" {
			misbehaviours++
		}
	}
	fmt.Printf("audit log: %d misbehaviour reports with evidence\n", misbehaviours)
	// Output:
	// round 1: acme-games    accepted=true  verifiers=4 shady-checks consulted
	// round 2: fair-auctions accepted=true  verifiers=4 shady-checks consulted
	// round 3: fraud-factory accepted=false verifiers=3 shady-checks excluded
	// round 4: acme-games    accepted=true  verifiers=3 shady-checks excluded
	// round 5: fair-auctions accepted=true  verifiers=3 shady-checks excluded
	// round 6: fraud-factory accepted=false verifiers=3 shady-checks excluded
	//
	// final reputations:
	//   verifier veritas       0.88
	//   verifier checkers      0.88
	//   verifier proofly       0.88
	//   verifier shady-checks  0.25
	//   inventor acme-games    0.50 (key 6f158170...)
	//   inventor fair-auctions 0.50 (key 8ed90420...)
	//   inventor fraud-factory 0.25 (key 11bba3ed...)
	// audit log: 2 misbehaviour reports with evidence
}
