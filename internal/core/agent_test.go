package core_test

// The agent's end of Fig. 1 against the verifier server production runs:
// internal/service, dialed in process or over TCP. These tests live in the
// external package because service imports core.

import (
	"context"
	"encoding/json"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rationality/internal/bimatrix"
	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/identity"
	"rationality/internal/numeric"
	"rationality/internal/participation"
	"rationality/internal/proof"
	"rationality/internal/quorum"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// newVerifier starts a verification service — honest, or over the lying
// procedures `authority verifier -byzantine` serves — and closes it when
// the test ends. Its Reputation stays nil: only the agent's panel moves
// reputations.
func newVerifier(t testing.TB, id string, lying bool) *service.Service {
	t.Helper()
	cfg := service.Config{ID: id}
	if lying {
		cfg.Procedures = core.NewLyingProcedureRegistry()
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// testAgent is the agent's end of Fig. 1: it fetches the inventor's
// announcement and has its verifier panel vote on it.
type testAgent struct {
	inventor transport.Client
	panel    *quorum.Client
}

func (a testAgent) Consult(ctx context.Context) (*quorum.Result, error) {
	ann, err := core.FetchAnnouncement(ctx, a.inventor)
	if err != nil {
		return nil, err
	}
	return a.panel.VerifyAnnouncement(ctx, ann)
}

// newAgent builds a testAgent whose panel records its votes in registry
// and consults only members at or above threshold.
func newAgent(t testing.TB, inventor transport.Client, members []quorum.Member, registry *reputation.Registry, threshold float64) testAgent {
	t.Helper()
	panel, err := quorum.New(quorum.Config{Members: members, Registry: registry, Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return testAgent{inventor: inventor, panel: panel}
}

// inventorClient serves ann from an in-process inventor.
func inventorClient(t testing.TB, ann core.Announcement) transport.Client {
	t.Helper()
	inventor, err := core.NewInventorService(ann)
	if err != nil {
		t.Fatal(err)
	}
	return transport.DialInProc(inventor)
}

func newTestAgent(t *testing.T, ann core.Announcement, verifierIDs []string, corrupt map[string]bool) (testAgent, *reputation.Registry) {
	t.Helper()
	members := make([]quorum.Member, 0, len(verifierIDs))
	for _, id := range verifierIDs {
		members = append(members, quorum.Member{ID: id, Client: transport.DialInProc(newVerifier(t, id, corrupt[id]))})
	}
	registry := reputation.NewRegistry()
	return newAgent(t, inventorClient(t, ann), members, registry, 0), registry
}

func marshal(t testing.TB, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestEndToEndEnumerationHonest(t *testing.T) {
	ann, err := core.AnnounceEnumeration("honest-inventor", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	agent, registry := newTestAgent(t, ann, []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("honest announcement rejected")
	}
	if len(res.Votes) != 3 {
		t.Fatalf("votes = %d", len(res.Votes))
	}
	for _, v := range res.Votes {
		if !v.Verdict.Accepted {
			t.Errorf("%s rejected: %s", v.VerifierID, v.Verdict.Reason)
		}
	}
	// All verifiers agreed with the majority: reputations rise.
	if registry.Reputation("v1") <= 0.5 {
		t.Error("agreeing verifier should gain reputation")
	}
	// The inventor was not reported.
	for _, e := range registry.Events() {
		if e.Party == "honest-inventor" {
			t.Error("honest inventor was reported")
		}
	}
}

func TestEndToEndEnumerationForged(t *testing.T) {
	ann, err := core.AnnounceEnumerationForged("evil-inventor", game.PrisonersDilemma(), game.Profile{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	agent, registry := newTestAgent(t, ann, []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("forged announcement accepted")
	}
	// The inventor must have been reported with evidence.
	found := false
	for _, e := range registry.Events() {
		if e.Party == "evil-inventor" && e.Kind == reputation.Misbehaved {
			found = true
			if !strings.Contains(e.Details, "rejected") {
				t.Errorf("weak evidence: %q", e.Details)
			}
		}
	}
	if !found {
		t.Error("forging inventor was not reported")
	}
	if registry.Reputation("evil-inventor") >= 0.5 {
		t.Error("forging inventor kept its reputation")
	}
}

func TestEndToEndCorruptMinorityOutvoted(t *testing.T) {
	ann, err := core.AnnounceEnumeration("honest-inventor", battleOfSexes(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	agent, registry := newTestAgent(t, ann, []string{"v1", "v2", "liar"},
		map[string]bool{"liar": true})
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("corrupt minority overturned an honest proof")
	}
	if registry.Reputation("liar") >= 0.5 {
		t.Error("lying verifier should lose reputation")
	}
	if registry.Reputation("v1") <= 0.5 {
		t.Error("honest verifier should gain reputation")
	}
}

func TestEndToEndP1(t *testing.T) {
	g := bimatrix.FromInts(
		[][]int64{{1, -1}, {-1, 1}},
		[][]int64{{-1, 1}, {1, -1}},
	)
	ann, err := core.AnnounceP1("inventor", "matching-pennies", g)
	if err != nil {
		t.Fatal(err)
	}
	agent, _ := newTestAgent(t, ann, []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest P1 announcement rejected: %+v", res.Votes)
	}
	v := res.Verdict
	if v.Details["lambdaRow"] != "0" || v.Details["lambdaCol"] != "0" {
		t.Errorf("recovered values = %v", v.Details)
	}
	if v.Details["bitsOnWire"] != "4" {
		t.Errorf("bitsOnWire = %s, want 4", v.Details["bitsOnWire"])
	}
}

func TestEndToEndP1Forged(t *testing.T) {
	g := bimatrix.FromInts(
		[][]int64{{1, -1}, {-1, 1}},
		[][]int64{{-1, 1}, {1, -1}},
	)
	ann := core.AnnounceP1Forged("evil", "mp", g, []int{0}, []int{0})
	agent, _ := newTestAgent(t, ann, []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("forged P1 supports accepted")
	}
}

func TestEndToEndParticipation(t *testing.T) {
	g := participation.MustNew(3, 2, numeric.I(8), numeric.I(3))
	ann, err := core.AnnounceParticipation("inventor", "auction", g, participation.LowBranch)
	if err != nil {
		t.Fatal(err)
	}
	agent, _ := newTestAgent(t, ann, []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest participation advice rejected: %+v", res.Votes)
	}
	v := res.Verdict
	if v.Details["p"] != "1/4" {
		t.Errorf("advised p = %s, want 1/4", v.Details["p"])
	}
	if v.Details["expectedGain"] != "1/2" {
		t.Errorf("expected gain = %s, want v/16 = 1/2", v.Details["expectedGain"])
	}
}

func TestEndToEndParticipationForged(t *testing.T) {
	g := participation.MustNew(3, 2, numeric.I(8), numeric.I(3))
	ann := core.AnnounceParticipationForged("evil", "auction", g, "1/3")
	agent, registry := newTestAgent(t, ann, []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("forged participation advice accepted")
	}
	if registry.Reputation("evil") >= 0.5 {
		t.Error("forging inventor kept its reputation")
	}
}

func TestEndToEndNAgent(t *testing.T) {
	g := threeAgentMajority()
	uniform := make(game.MixedProfile, 3)
	for i := range uniform {
		v := numeric.NewVec(2)
		v.SetAt(0, numeric.R(1, 2))
		v.SetAt(1, numeric.R(1, 2))
		uniform[i] = v
	}
	ann, err := core.AnnounceNAgent("inventor", g, uniform)
	if err != nil {
		t.Fatal(err)
	}
	agent, _ := newTestAgent(t, ann, []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest n-agent advice rejected: %+v", res.Votes)
	}
	if res.Verdict.Details["value[0]"] != "3/4" {
		t.Errorf("value[0] = %s, want 3/4", res.Verdict.Details["value[0]"])
	}
}

func TestEndToEndCorrelated(t *testing.T) {
	// Chicken: the welfare-optimal correlated equilibrium beats every Nash
	// equilibrium; the agents verify the device's distribution before
	// obeying.
	g := game.NewBimatrix("chicken",
		[][]int64{{6, 2}, {7, 0}},
		[][]int64{{6, 7}, {2, 0}},
	)
	ann, err := core.AnnounceCorrelated("device", g)
	if err != nil {
		t.Fatal(err)
	}
	agent, _ := newTestAgent(t, ann, []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest correlated advice rejected: %+v", res.Votes)
	}
	v := res.Verdict
	if v.Details["value[0]"] == "" || v.Details["value[1]"] == "" {
		t.Errorf("missing values: %v", v.Details)
	}
}

func TestEndToEndCorrelatedForged(t *testing.T) {
	g := game.PrisonersDilemma()
	// A point mass on mutual cooperation violates obedience.
	ann := core.Announcement{
		InventorID: "evil-device",
		Format:     core.FormatCorrelated,
		Game:       marshal(t, core.SpecFromGame(g)),
		Advice: marshal(t, core.CorrelatedAdviceSpec{Entries: []core.CorrelatedEntry{
			{Profile: game.Profile{0, 0}, Prob: "1"},
		}}),
	}
	agent, registry := newTestAgent(t, ann, []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("forged correlated advice accepted")
	}
	if registry.Reputation("evil-device") >= 0.5 {
		t.Error("forging device kept its reputation")
	}
}

func TestEndToEndLastMover(t *testing.T) {
	g := participation.MustNew(3, 2, numeric.I(8), numeric.I(3))
	ann, err := core.AnnounceLastMover("auction-house", "entry-game", g)
	if err != nil {
		t.Fatal(err)
	}
	agent, _ := newTestAgent(t, ann, []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest decision table rejected: %+v", res.Votes)
	}
	v := res.Verdict
	// The verified gains: count 0 → 0; count 1 → v−c = 5; count 2 → v = 8.
	if v.Details["gain[count=0]"] != "0" || v.Details["gain[count=1]"] != "5" || v.Details["gain[count=2]"] != "8" {
		t.Errorf("gains = %v", v.Details)
	}
	// The advice table itself: abstain, participate, abstain.
	var spec core.LastMoverAdviceSpec
	if err := json.Unmarshal(ann.Advice, &spec); err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false}
	for i, w := range want {
		if spec.Decisions[i] != w {
			t.Errorf("decision[%d] = %v, want %v", i, spec.Decisions[i], w)
		}
	}
}

func TestEndToEndLastMoverFlipped(t *testing.T) {
	g := participation.MustNew(3, 2, numeric.I(8), numeric.I(3))
	ann, err := core.AnnounceLastMoverFlipped("shady-house", "entry-game", g)
	if err != nil {
		t.Fatal(err)
	}
	agent, registry := newTestAgent(t, ann, []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("flipped decision table accepted")
	}
	if registry.Reputation("shady-house") >= 0.5 {
		t.Error("flipping inventor kept its reputation")
	}
}

func TestLastMoverGeneralQuorum(t *testing.T) {
	// k = 3 of n = 5: participate exactly when count == k−1 = 2.
	g := participation.MustNew(5, 3, numeric.I(8), numeric.I(3))
	ann, err := core.AnnounceLastMover("inv", "g", g)
	if err != nil {
		t.Fatal(err)
	}
	var spec core.LastMoverAdviceSpec
	if err := json.Unmarshal(ann.Advice, &spec); err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, true, false, false}
	for i, w := range want {
		if spec.Decisions[i] != w {
			t.Errorf("decision[count=%d] = %v, want %v", i, spec.Decisions[i], w)
		}
	}
	agent, _ := newTestAgent(t, ann, []string{"v1"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("general-k table rejected: %+v", res.Votes)
	}
}

func linksRoutingAnnouncement(t *testing.T) core.Announcement {
	t.Helper()
	ann, err := core.AnnounceLinksRouting("operator", core.LinksRoutingSpec{
		Loads:         []int64{40, 10, 0},
		AgentLoad:     20,
		Remaining:     2,
		ObservedTotal: 60,
		ObservedCount: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

func TestEndToEndLinksRouting(t *testing.T) {
	agent, _ := newTestAgent(t, linksRoutingAnnouncement(t), []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest routing advice rejected: %+v", res.Votes)
	}
	v := res.Verdict
	if v.Details["recomputedLink"] == "" || v.Details["greedyLink"] == "" {
		t.Errorf("missing details: %v", v.Details)
	}
}

func TestLinksRoutingForgedAdviceRejected(t *testing.T) {
	ann := linksRoutingAnnouncement(t)
	var honest core.LinksRoutingAdviceSpec
	if err := json.Unmarshal(ann.Advice, &honest); err != nil {
		t.Fatal(err)
	}
	// Point the advice at a different link.
	forgedLink := (honest.Link + 1) % 3
	ann.Advice = marshal(t, core.LinksRoutingAdviceSpec{Link: forgedLink})
	agent, _ := newTestAgent(t, ann, []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("forged routing advice accepted")
	}
}

func TestAgentOverTCP(t *testing.T) {
	// The same end-to-end flow with every party on its own TCP endpoint.
	ann, err := core.AnnounceEnumeration("inventor", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	inventorSvc, err := core.NewInventorService(ann)
	if err != nil {
		t.Fatal(err)
	}
	inventorSrv, err := transport.ListenTCP("127.0.0.1:0", inventorSvc)
	if err != nil {
		t.Fatal(err)
	}
	defer inventorSrv.Close()

	verifierIDs := []string{"v1", "v2", "v3"}
	members := make([]quorum.Member, 0, len(verifierIDs))
	for _, id := range verifierIDs {
		srv, err := transport.ListenTCP("127.0.0.1:0", newVerifier(t, id, false))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := transport.DialTCP(srv.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		members = append(members, quorum.Member{ID: id, Client: c})
	}

	inventorTCP, err := transport.DialTCP(inventorSrv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer inventorTCP.Close()

	agent := newAgent(t, inventorTCP, members, reputation.NewRegistry(), 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := agent.Consult(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("TCP consultation rejected an honest announcement")
	}
}

func TestAgentThresholdFiltersVerifiers(t *testing.T) {
	ann, err := core.AnnounceEnumeration("inventor", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	registry := reputation.NewRegistry()
	// Destroy the verifier's reputation first.
	for i := 0; i < 10; i++ {
		registry.ReportAgreement("shunned", false)
	}
	agent := newAgent(t, inventorClient(t, ann),
		[]quorum.Member{{ID: "shunned", Client: transport.DialInProc(newVerifier(t, "shunned", false))}},
		registry, 0.5)
	if _, err := agent.Consult(context.Background()); err == nil {
		t.Error("consultation should fail with no trusted verifiers")
	}
}

// TestAgentConsultWeightedLiarOutvoted pins the consultation to the
// weighted vote: two liars with wrecked reputations outnumber one trusted
// verifier, but earned trust outweighs head count. A raw-count majority
// would decide both cases the liars' way.
func TestAgentConsultWeightedLiarOutvoted(t *testing.T) {
	cases := []struct {
		name         string
		forged       bool
		wantAccepted bool
	}{
		{name: "honest announcement survives a lying majority", forged: false, wantAccepted: true},
		{name: "forged announcement caught despite a lying majority", forged: true, wantAccepted: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ann core.Announcement
			var err error
			if tc.forged {
				ann, err = core.AnnounceEnumerationForged("shady-inventor", game.PrisonersDilemma(), game.Profile{0, 0})
			} else {
				ann, err = core.AnnounceEnumeration("honest-inventor", game.PrisonersDilemma(), proof.MaxNash)
			}
			if err != nil {
				t.Fatal(err)
			}
			agent, registry := newTestAgent(t, ann,
				[]string{"trusted", "liar-1", "liar-2"},
				map[string]bool{"liar-1": true, "liar-2": true})
			// Earned history: the trusted verifier has agreed 4 times
			// (reputation 5/6), each liar has dissented 4 times (1/6
			// apiece — 1/3 combined, so even together they cannot outweigh
			// the trusted voice).
			for i := 0; i < 4; i++ {
				registry.ReportAgreement("trusted", true)
				registry.ReportAgreement("liar-1", false)
				registry.ReportAgreement("liar-2", false)
			}
			liarBefore := registry.Reputation("liar-1")

			res, err := agent.Consult(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted != tc.wantAccepted {
				t.Fatalf("Accepted = %v, want %v (the liars' head count must not decide)",
					res.Accepted, tc.wantAccepted)
			}
			// The vote moved reputations: liars decayed further, trust grew.
			if after := registry.Reputation("liar-1"); after >= liarBefore {
				t.Errorf("liar reputation %f -> %f; dissent must decay it", liarBefore, after)
			}
			if registry.Reputation("trusted") <= 5.0/6.0 {
				t.Error("trusted verifier's agreement did not raise its reputation")
			}
			if tc.forged {
				// The weighted rejection also reports the inventor.
				found := false
				for _, e := range registry.Events() {
					if e.Party == "shady-inventor" && e.Kind == reputation.Misbehaved {
						found = true
					}
				}
				if !found {
					t.Error("rejected inventor was not reported")
				}
			}
		})
	}
}

// signedAnnouncement is an honest §3 announcement signed by a key drawn
// from seed.
func signedAnnouncement(t *testing.T, seed int64) core.Announcement {
	t.Helper()
	k, err := identity.NewKeyPairFrom(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	ann, err := core.AnnounceEnumeration("placeholder", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := core.SignAnnouncement(k, ann)
	if err != nil {
		t.Fatal(err)
	}
	return signed
}

func TestAgentAcceptsSignedAnnouncement(t *testing.T) {
	agent, _ := newTestAgent(t, signedAnnouncement(t, 3), []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("signed honest announcement rejected")
	}
}

func TestAgentRejectsTamperedSignedAnnouncement(t *testing.T) {
	signed := signedAnnouncement(t, 4)
	signed.Advice = marshal(t, game.Profile{0, 0})
	agent, _ := newTestAgent(t, signed, []string{"v1", "v2", "v3"}, nil)
	if _, err := agent.Consult(context.Background()); err == nil {
		t.Fatal("tampered signed announcement consulted successfully")
	}
}

// A forging inventor that SIGNS its forgery is still caught by the
// verifiers, and the misbehaviour report is now bound to its key.
func TestSignedForgeryStillCaughtAndAttributed(t *testing.T) {
	k, err := identity.NewKeyPairFrom(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	forged, err := core.AnnounceEnumerationForged("x", game.PrisonersDilemma(), game.Profile{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	signed, err := core.SignAnnouncement(k, forged)
	if err != nil {
		t.Fatal(err)
	}
	agent, registry := newTestAgent(t, signed, []string{"v1", "v2", "v3"}, nil)
	res, err := agent.Consult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("signed forgery accepted")
	}
	if registry.Reputation(string(k.ID())) >= 0.5 {
		t.Error("forger's key-bound reputation did not drop")
	}
}

// battleOfSexes has two ≤u-incomparable pure equilibria, [0 0] and [1 1].
func battleOfSexes() *game.Game {
	return game.NewBimatrix("battle-of-the-sexes",
		[][]int64{{2, 0}, {0, 1}},
		[][]int64{{1, 0}, {0, 2}},
	)
}

// threeAgentMajority is a 3-agent, 2-strategy majority coordination game:
// each agent gains 1 when it sides with the majority, else 0.
func threeAgentMajority() *game.Game {
	g, err := game.FromFunc("majority-3", []int{2, 2, 2}, func(i int, p game.Profile) *big.Rat {
		if p[(i+1)%3] == p[i] || p[(i+2)%3] == p[i] {
			return numeric.One()
		}
		return numeric.Zero()
	})
	if err != nil {
		panic(err)
	}
	return g
}
