package core_test

import (
	"context"
	"errors"
	"testing"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/proof"
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
	inventor, err := core.NewInventorService(ann)
	if err != nil {
		t.Fatal(err)
	}
	verifiers := map[string]transport.Client{"dead": brokenClient{}}
	for _, id := range []string{"v1", "v2", "v3"} {
		verifiers[id] = transport.DialInProc(newVerifier(t, id, false))
	}
	registry := reputation.NewRegistry()
	agent, err := core.NewAgent(core.AgentConfig{
		Name:      "resilient",
		Inventor:  transport.DialInProc(inventor),
		Verifiers: verifiers,
		Registry:  registry,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("three healthy verifiers should carry the vote")
	}
	if len(res.Verdicts) != 3 {
		t.Fatalf("verdicts = %d, want 3 (dead verifier abstains)", len(res.Verdicts))
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
	inventor, err := core.NewInventorService(ann)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := core.NewAgent(core.AgentConfig{
		Name:      "stranded",
		Inventor:  transport.DialInProc(inventor),
		Verifiers: map[string]transport.Client{"dead1": brokenClient{}, "dead2": brokenClient{}},
		Registry:  reputation.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Consult(context.Background()); err == nil {
		t.Fatal("consultation succeeded with no live verifiers")
	}
}

func TestConsultTieIsAnError(t *testing.T) {
	ann, err := core.AnnounceEnumeration("inventor", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	inventor, err := core.NewInventorService(ann)
	if err != nil {
		t.Fatal(err)
	}
	honest := newVerifier(t, "honest", false)
	corrupt := newVerifier(t, "corrupt", true)
	agent, err := core.NewAgent(core.AgentConfig{
		Name:     "torn",
		Inventor: transport.DialInProc(inventor),
		Verifiers: map[string]transport.Client{
			"honest":  transport.DialInProc(honest),
			"corrupt": transport.DialInProc(corrupt),
		},
		Registry: reputation.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Consult(context.Background()); !errors.Is(err, reputation.ErrTie) {
		t.Fatalf("err = %v, want a tie", err)
	}
}

func TestConsultDeadInventor(t *testing.T) {
	vs := newVerifier(t, "v", false)
	agent, err := core.NewAgent(core.AgentConfig{
		Name:      "orphan",
		Inventor:  brokenClient{},
		Verifiers: map[string]transport.Client{"v": transport.DialInProc(vs)},
		Registry:  reputation.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
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

	inventorClient, err := transport.DialTCP(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer inventorClient.Close()
	verifierClient, err := transport.DialTCP(vsrv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer verifierClient.Close()

	agent, err := core.NewAgent(core.AgentConfig{
		Name:      "big-agent",
		Inventor:  inventorClient,
		Verifiers: map[string]transport.Client{"v": verifierClient},
		Registry:  reputation.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("large honest proof rejected: %+v", res.Verdicts)
	}
}
