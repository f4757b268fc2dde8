package rationality

import (
	"context"
	cryptorand "crypto/rand"
	"math/rand"
	"testing"

	"rationality/internal/bimatrix"
	"rationality/internal/congestion"
	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/identity"
	"rationality/internal/interactive"
	"rationality/internal/links"
	"rationality/internal/numeric"
	"rationality/internal/participation"
	"rationality/internal/proof"
	"rationality/internal/quorum"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// These tests compose the internal packages the way the Examples do: one
// flow per part of the paper, end to end. Their TestFacade names date from
// the root package's former re-export layer, which they used to call.

func TestFacadeRationals(t *testing.T) {
	if numeric.R(3, 8).RatString() != "3/8" || numeric.I(4).RatString() != "4" || numeric.MustRat("1/4").RatString() != "1/4" {
		t.Fatal("rational helpers misbehave")
	}
}

func TestFacadeEnumerationFlow(t *testing.T) {
	g, err := game.New("pd", []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	g.SetPayoffs(game.Profile{0, 0}, numeric.I(3), numeric.I(3))
	g.SetPayoffs(game.Profile{0, 1}, numeric.I(0), numeric.I(5))
	g.SetPayoffs(game.Profile{1, 0}, numeric.I(5), numeric.I(0))
	g.SetPayoffs(game.Profile{1, 1}, numeric.I(1), numeric.I(1))

	p, err := proof.Build(g, game.Profile{1, 1}, proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	if err := proof.Check(g, p); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeP1AndP2(t *testing.T) {
	g := bimatrix.FromInts(
		[][]int64{{1, -1}, {-1, 1}},
		[][]int64{{-1, 1}, {1, -1}},
	)
	advice, eq, err := interactive.BuildP1Advice(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := interactive.VerifyP1(g, advice)
	if err != nil {
		t.Fatal(err)
	}
	if got.LambdaRow.Sign() != 0 {
		t.Errorf("λ1 = %s", got.LambdaRow.RatString())
	}

	prover, err := interactive.NewHonestProver(g, eq, cryptorand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	report, err := interactive.VerifyP2(g, interactive.RowAgent, prover, interactive.P2Config{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Accepted {
		t.Fatal("honest P2 prover rejected")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	pg, err := participation.New(3, 2, numeric.I(8), numeric.I(3))
	if err != nil {
		t.Fatal(err)
	}
	ann, err := core.AnnounceParticipation("inventor", "auction", pg, participation.LowBranch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := consult(t, ann, threeVerifiers(t), reputation.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("honest advice rejected through the facade")
	}
}

func TestFacadeFig7(t *testing.T) {
	pt, err := links.SimulatePoint(20, links.Fig7Config{Agents: 100, MaxLoad: 100, Iterations: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Links != 20 {
		t.Errorf("Links = %d", pt.Links)
	}
}

func TestFacadeSignedCorrelatedFlow(t *testing.T) {
	g, err := game.New("chicken", []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	g.SetPayoffs(game.Profile{0, 0}, numeric.I(6), numeric.I(6))
	g.SetPayoffs(game.Profile{0, 1}, numeric.I(2), numeric.I(7))
	g.SetPayoffs(game.Profile{1, 0}, numeric.I(7), numeric.I(2))
	g.SetPayoffs(game.Profile{1, 1}, numeric.I(0), numeric.I(0))

	ann, err := core.AnnounceCorrelated("device", g)
	if err != nil {
		t.Fatal(err)
	}
	k, err := identity.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	signed, err := core.SignAnnouncement(k, ann)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyAnnouncementSignature(signed); err != nil {
		t.Fatal(err)
	}

	res, err := consult(t, signed, threeVerifiers(t), reputation.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("signed correlated advice rejected")
	}
}

func TestFacadeLastMover(t *testing.T) {
	g, err := participation.New(3, 2, numeric.I(8), numeric.I(3))
	if err != nil {
		t.Fatal(err)
	}
	ann, err := core.AnnounceLastMover("auction-house", "entry", g)
	if err != nil {
		t.Fatal(err)
	}
	if ann.Format != core.FormatLastMover {
		t.Errorf("format = %s", ann.Format)
	}
}

func TestFacadeDominanceAndCorrelated(t *testing.T) {
	g, err := game.New("pd", []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	g.SetPayoffs(game.Profile{0, 0}, numeric.I(3), numeric.I(3))
	g.SetPayoffs(game.Profile{0, 1}, numeric.I(0), numeric.I(5))
	g.SetPayoffs(game.Profile{1, 0}, numeric.I(5), numeric.I(0))
	g.SetPayoffs(game.Profile{1, 1}, numeric.I(1), numeric.I(1))
	// Defect strictly dominates for both agents, so (D, D) is the only
	// pure equilibrium.
	if all := g.AllNash(); len(all) != 1 || !all[0].Equal(game.Profile{1, 1}) {
		t.Fatalf("pure equilibria = %v", all)
	}
	var d *game.CorrelatedDistribution
	d, err = g.SolveCorrelatedEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsCorrelatedEquilibrium(d) {
		t.Fatal("solver output rejected")
	}
}

func TestFacadeCongestion(t *testing.T) {
	net, err := congestion.NewNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 2 {
		t.Errorf("NumNodes = %d", net.NumNodes())
	}
}

func TestFacadeVerificationService(t *testing.T) {
	g := prisonersDilemmaGame(t)
	ann, err := core.AnnounceEnumeration("acme", g, proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	registry := reputation.NewRegistry()
	svc, err := service.New(service.Config{ID: "svc", Reputation: registry})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Warm the cache first so the stream's repeats are deterministic hits.
	if _, err := svc.VerifyAnnouncement(context.Background(), ann); err != nil {
		t.Fatal(err)
	}
	tr, err := svc.VerifyStream(context.Background(), []core.Announcement{ann, ann, ann}, func(service.StreamVerdict) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if tr.Delivered != 3 || tr.Accepted != 3 {
		t.Fatalf("trailer = %+v, want 3 accepted", tr)
	}
	st := svc.Stats()
	if st.Requests != 4 || st.CacheHits != 3 {
		t.Fatalf("stats = %+v, want 4 requests with 3 cache hits", st)
	}
	// Reputation records once per fresh verification, not once per request:
	// the three cached repeats must not inflate the inventor's standing.
	if got := reported(registry, "acme", reputation.Agreed); got != 1 {
		t.Fatalf("acme agreements = %d, want exactly 1", got)
	}

	// The service is a drop-in transport handler for the agent's panel.
	res, err := consult(t, ann, []quorum.Member{{ID: "svc", Client: transport.DialInProc(svc)}}, registry)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("consultation via service rejected")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.VerifyStream(context.Background(), nil, nil); err != service.ErrServiceClosed {
		t.Fatalf("post-close err = %v, want ErrServiceClosed", err)
	}
}

// consult runs the agent's side of Fig. 1: an in-process inventor serves
// ann, and the agent fetches it and has a panel of members vote on it.
func consult(t testing.TB, ann core.Announcement, members []quorum.Member, registry *reputation.Registry) (*quorum.Result, error) {
	t.Helper()
	inventor, err := core.NewInventorService(ann)
	if err != nil {
		t.Fatal(err)
	}
	panel, err := quorum.New(quorum.Config{Members: members, Registry: registry})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	announced, err := core.FetchAnnouncement(ctx, transport.DialInProc(inventor))
	if err != nil {
		return nil, err
	}
	return panel.VerifyAnnouncement(ctx, announced)
}

// threeVerifiers starts three verification services, closed when the test
// ends, and dials each in process as a panel member.
func threeVerifiers(t testing.TB) []quorum.Member {
	t.Helper()
	var members []quorum.Member
	for _, id := range []string{"v1", "v2", "v3"} {
		vs, err := service.New(service.Config{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = vs.Close() })
		members = append(members, quorum.Member{ID: id, Client: transport.DialInProc(vs)})
	}
	return members
}

func prisonersDilemmaGame(t *testing.T) *game.Game {
	t.Helper()
	g, err := game.New("pd", []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	g.SetPayoffs(game.Profile{0, 0}, numeric.I(3), numeric.I(3))
	g.SetPayoffs(game.Profile{0, 1}, numeric.I(0), numeric.I(5))
	g.SetPayoffs(game.Profile{1, 0}, numeric.I(5), numeric.I(0))
	g.SetPayoffs(game.Profile{1, 1}, numeric.I(1), numeric.I(1))
	return g
}

// reported counts the reputation events of kind logged against party.
func reported(r *reputation.Registry, party string, kind reputation.EventKind) int {
	n := 0
	for _, e := range r.Events() {
		if e.Party == party && e.Kind == kind {
			n++
		}
	}
	return n
}
