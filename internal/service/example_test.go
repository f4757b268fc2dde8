package service_test

import (
	"context"
	"fmt"
	"testing"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/numeric"
	"rationality/internal/participation"
	"rationality/internal/proof"
	"rationality/internal/quorum"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// Example_consultation runs the full Fig. 1 loop: an inventor announces
// the §5 participation advice, a quorum of three verification services
// checks it, and the agent adopts it only after the weighted majority
// accepts.
func Example_consultation() {
	g, err := participation.New(3, 2, numeric.I(8), numeric.I(3))
	if err != nil {
		fmt.Println(err)
		return
	}
	ann, err := core.AnnounceParticipation("auction-house", "entry-game", g, participation.LowBranch)
	if err != nil {
		fmt.Println(err)
		return
	}
	inventor, err := core.NewInventorService(ann)
	if err != nil {
		fmt.Println(err)
		return
	}
	var members []quorum.Member
	for _, id := range []string{"v1", "v2", "v3"} {
		vs, err := service.New(service.Config{ID: id})
		if err != nil {
			fmt.Println(err)
			return
		}
		defer vs.Close()
		members = append(members, quorum.Member{ID: id, Client: transport.DialInProc(vs)})
	}
	panel, err := quorum.New(quorum.Config{Members: members, Registry: reputation.NewRegistry()})
	if err != nil {
		fmt.Println(err)
		return
	}
	ctx := context.Background()
	announced, err := core.FetchAnnouncement(ctx, transport.DialInProc(inventor))
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := panel.VerifyAnnouncement(ctx, announced)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("advice accepted by majority: %v\n", res.Accepted)
	fmt.Printf("advised p: %s\n", res.Verdict.Details["p"])
	// Output:
	// advice accepted by majority: true
	// advised p: 1/4
}

// TestAgentConsultsServiceBackedVerifier runs the full Fig. 1 consultation
// against three services: the service is the verifier party an agent's
// panel consults. It lives in the external package because quorum imports
// service.
func TestAgentConsultsServiceBackedVerifier(t *testing.T) {
	ann, err := core.AnnounceEnumeration("honest-inventor", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	inventor, err := core.NewInventorService(ann)
	if err != nil {
		t.Fatal(err)
	}
	var members []quorum.Member
	for _, id := range []string{"v1", "v2", "v3"} {
		vs, err := service.New(service.Config{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = vs.Close() })
		members = append(members, quorum.Member{ID: id, Client: transport.DialInProc(vs)})
	}
	panel, err := quorum.New(quorum.Config{Members: members, Registry: reputation.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	announced, err := core.FetchAnnouncement(ctx, transport.DialInProc(inventor))
	if err != nil {
		t.Fatal(err)
	}
	res, err := panel.VerifyAnnouncement(ctx, announced)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || len(res.Votes) != 3 {
		t.Fatalf("consultation = %+v", res)
	}
}
