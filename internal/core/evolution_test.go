package core_test

import (
	"context"
	"testing"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/proof"
	"rationality/internal/quorum"
	"rationality/internal/reputation"
	"rationality/internal/transport"
)

// The paper's incentive loop: verifiers "would like to have a good
// long-lasting reputation"; dishonest parties "can be excluded from acting
// in games". This simulation runs many consultation rounds with a corrupt
// verifier in the pool and a reputation-threshold agent: the corrupt
// verifier's reputation decays with each outvoted lie until the agent stops
// consulting it entirely, after which its reputation stops moving.
func TestReputationEvolutionExcludesCorruptVerifier(t *testing.T) {
	ann, err := core.AnnounceEnumeration("inventor", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}

	registry := reputation.NewRegistry()
	var members []quorum.Member
	for _, id := range []string{"h1", "h2", "h3", "liar"} {
		members = append(members, quorum.Member{ID: id, Client: transport.DialInProc(newVerifier(t, id, id == "liar"))})
	}

	const threshold = 0.3
	agent := newAgent(t, inventorClient(t, ann), members, registry, threshold)

	excludedAt := -1
	for round := 0; round < 20; round++ {
		res, err := agent.Consult(context.Background())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !res.Accepted {
			t.Fatalf("round %d: honest announcement rejected", round)
		}
		consulted := false
		for _, v := range res.Votes {
			consulted = consulted || v.VerifierID == "liar"
		}
		if !consulted && excludedAt < 0 {
			excludedAt = round
		}
	}
	if excludedAt < 0 {
		t.Fatalf("corrupt verifier never excluded; reputation = %f", registry.Reputation("liar"))
	}
	// After exclusion the liar's score is frozen: (0 agreements, k
	// disagreements) with reputation 1/(k+2) < threshold.
	if registry.Reputation("liar") >= threshold {
		t.Errorf("excluded verifier's reputation %f above the threshold", registry.Reputation("liar"))
	}
	// The honest verifiers keep earning: near-perfect reputations.
	for _, id := range []string{"h1", "h2", "h3"} {
		if registry.Reputation(id) < 0.9 {
			t.Errorf("%s reputation = %f, want > 0.9 after 20 rounds", id, registry.Reputation(id))
		}
	}
	// Exclusion must happen quickly: 1/(k+2) < 0.3 needs k >= 2, so by
	// round 2 or 3.
	if excludedAt > 5 {
		t.Errorf("exclusion took %d rounds", excludedAt)
	}
}

// The flip side: honest verifiers never fall below the consultation
// threshold even when a corrupt COLLEAGUE occasionally agrees with them
// (agreement with a correct majority never hurts anyone honest).
func TestReputationNeverPunishesHonestMajority(t *testing.T) {
	registry := reputation.NewRegistry()
	for round := 0; round < 50; round++ {
		// Three honest verdicts, one lie.
		if _, err := registry.WeightedVote(map[string]bool{
			"h1": true, "h2": true, "h3": true, "liar": false,
		}); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"h1", "h2", "h3"} {
			if registry.Reputation(id) < 0.5 {
				t.Fatalf("round %d: honest verifier %s fell to %f", round, id, registry.Reputation(id))
			}
		}
	}
}
