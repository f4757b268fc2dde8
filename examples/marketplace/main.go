// Command marketplace simulates the rationality authority as an ecosystem
// over many rounds: a mixed population of honest and forging inventors, a
// verifier pool containing one corrupt member, and a reputation-threshold
// agent. Round by round, majority voting pays honest verifiers and bleeds
// the liar until the agent stops consulting it; forging inventors are
// reported with evidence and their key-bound reputations collapse — the
// paper's "long-lasting reputation" incentive, end to end.
package main

import (
	"context"
	"fmt"
	"os"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/identity"
	"rationality/internal/proof"
	"rationality/internal/quorum"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "marketplace:", err)
		os.Exit(1)
	}
}

func run() error {
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
			return err
		}
		defer vs.Close()
		members = append(members, quorum.Member{ID: id, Client: transport.DialInProc(vs)})
	}
	const threshold = 0.3
	panel, err := quorum.New(quorum.Config{Members: members, Registry: registry, Threshold: threshold})
	if err != nil {
		return err
	}

	// The inventor population: two honest, one forger, each with a signing
	// identity.
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
	keys := map[string]*identity.KeyPair{}
	ids := map[string]string{}
	services := map[string]*core.InventorService{}
	for _, inv := range population {
		k, err := identity.NewKeyPair()
		if err != nil {
			return err
		}
		keys[inv.name] = k
		var ann core.Announcement
		if inv.honest {
			ann, err = core.AnnounceEnumeration(inv.name, pd, proof.MaxNash)
		} else {
			ann, err = core.AnnounceEnumerationForged(inv.name, pd, game.Profile{0, 0})
		}
		if err != nil {
			return err
		}
		signed, err := core.SignAnnouncement(k, ann)
		if err != nil {
			return err
		}
		ids[inv.name] = signed.InventorID
		svc, err := core.NewInventorService(signed)
		if err != nil {
			return err
		}
		services[inv.name] = svc
	}

	const rounds = 6
	ctx := context.Background()
	for round := 1; round <= rounds; round++ {
		inv := population[(round-1)%len(population)]
		announced, err := core.FetchAnnouncement(ctx, transport.DialInProc(services[inv.name]))
		if err != nil {
			return err
		}
		// Every announcement here is signed: the panel checks the signature
		// before any verifier is asked, so a rejection is charged to the
		// key that signed the forgery.
		res, err := panel.VerifyAnnouncement(ctx, announced)
		if err != nil {
			return err
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
	return nil
}
