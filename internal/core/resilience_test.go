package core_test

import (
	"context"
	"errors"
	"testing"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/proof"
	"rationality/internal/quorum"
	"rationality/internal/reputation"
	"rationality/internal/transport"
)

// Resilience tests: the agent must degrade gracefully when verifiers crash,
// hang up, or split evenly.

// brokenClient always fails.
type brokenClient struct{}

func (brokenClient) Call(context.Context, transport.Message) (transport.Message, error) {
	return transport.Message{}, errors.New("connection refused")
}
func (brokenClient) Close() error { return nil }

func TestConsultSurvivesAbstainingVerifier(t *testing.T) {
	ann, err := core.AnnounceEnumeration("inventor", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	members := []quorum.Member{{ID: "dead", Client: brokenClient{}}}
	for _, id := range []string{"v1", "v2", "v3"} {
		members = append(members, quorum.Member{ID: id, Client: transport.DialInProc(newVerifier(t, id, false))})
	}
	registry := reputation.NewRegistry()
	agent := newAgent(t, inventorClient(t, ann), members, registry, 0)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("three healthy verifiers should carry the vote")
	}
	if len(res.Votes) != 3 {
		t.Fatalf("votes = %d, want 3 (dead verifier abstains)", len(res.Votes))
	}
	// Abstaining must not move the dead verifier's reputation.
	if registry.Reputation("dead") != 0.5 {
		t.Error("abstaining verifier's reputation changed")
	}
}

func TestConsultFailsWhenAllVerifiersDead(t *testing.T) {
	ann, err := core.AnnounceEnumeration("inventor", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	agent := newAgent(t, inventorClient(t, ann),
		[]quorum.Member{{ID: "dead1", Client: brokenClient{}}, {ID: "dead2", Client: brokenClient{}}},
		reputation.NewRegistry(), 0)
	if _, err := agent.Consult(context.Background()); err == nil {
		t.Fatal("consultation succeeded with no live verifiers")
	}
}

func TestConsultTieIsAnError(t *testing.T) {
	ann, err := core.AnnounceEnumeration("inventor", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	agent := newAgent(t, inventorClient(t, ann), []quorum.Member{
		{ID: "honest", Client: transport.DialInProc(newVerifier(t, "honest", false))},
		{ID: "corrupt", Client: transport.DialInProc(newVerifier(t, "corrupt", true))},
	}, reputation.NewRegistry(), 0)
	if _, err := agent.Consult(context.Background()); !errors.Is(err, reputation.ErrTie) {
		t.Fatalf("err = %v, want a tie", err)
	}
}

func TestConsultDeadInventor(t *testing.T) {
	agent := newAgent(t, brokenClient{},
		[]quorum.Member{{ID: "v", Client: transport.DialInProc(newVerifier(t, "v", false))}},
		reputation.NewRegistry(), 0)
	if _, err := agent.Consult(context.Background()); err == nil {
		t.Fatal("consultation succeeded with a dead inventor")
	}
}

// Large announcements survive the TCP codec: an enumeration proof for a
// 2x32-strategy game is ~40 KB of JSON.
func TestLargeProofOverTCP(t *testing.T) {
	g := game.RandomGame("big", []int{32, 32}, 8, func(n int64) int64 { return n / 2 })
	pf, err := proof.BuildBestAdvice(g, proof.AnyNash)
	if err != nil {
		t.Skip("constructed game has no pure equilibrium")
	}
	proofBody, err := pf.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ann := core.Announcement{
		InventorID: "big-inventor",
		Format:     core.FormatEnumeration,
		Game:       marshal(t, core.SpecFromGame(g)),
		Advice:     marshal(t, pf.Advised),
		Proof:      proofBody,
	}
	inventorSvc, err := core.NewInventorService(ann)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.ListenTCP("127.0.0.1:0", inventorSvc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	vsrv, err := transport.ListenTCP("127.0.0.1:0", newVerifier(t, "v", false))
	if err != nil {
		t.Fatal(err)
	}
	defer vsrv.Close()

	inventorTCP, err := transport.DialTCP(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer inventorTCP.Close()
	verifierClient, err := transport.DialTCP(vsrv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer verifierClient.Close()

	agent := newAgent(t, inventorTCP, []quorum.Member{{ID: "v", Client: verifierClient}}, reputation.NewRegistry(), 0)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("large honest proof rejected: %+v", res.Votes)
	}
}
