package quorum

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/identity"
	"rationality/internal/proof"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// flipHandler wraps an honest verifier and lies on the wire: every
// verify reply's verdict is inverted. The verifier behind it still
// computes (and persists) honest verdicts — the paper's lying verifier
// is dishonest in what it reports, which is all an agent can observe.
type flipHandler struct {
	inner transport.Handler
}

func (f flipHandler) Handle(ctx context.Context, req transport.Message) (transport.Message, error) {
	resp, err := f.inner.Handle(ctx, req)
	if err != nil || req.Type != core.MsgVerify {
		return resp, err
	}
	var vr core.VerifyResponse
	if err := resp.Decode(&vr); err != nil {
		return transport.Message{}, err
	}
	vr.Verdict.Accepted = !vr.Verdict.Accepted
	if vr.Verdict.Accepted {
		vr.Verdict.Reason = ""
	} else {
		vr.Verdict.Reason = "rejected"
	}
	return transport.NewMessage("verdict", vr)
}

// failingClient abstains by construction: every call errors.
type failingClient struct{}

func (failingClient) Call(context.Context, transport.Message) (transport.Message, error) {
	return transport.Message{}, errors.New("unreachable")
}
func (failingClient) Close() error { return nil }

func pdAnnouncement(t testing.TB) core.Announcement {
	t.Helper()
	ann, err := core.AnnounceEnumeration("honest-inventor", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

func forgedAnnouncement(t testing.TB) core.Announcement {
	t.Helper()
	ann, err := core.AnnounceEnumerationForged("shady-inventor", game.PrisonersDilemma(), game.Profile{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

func newPersistedService(t *testing.T, id string) *service.Service {
	t.Helper()
	svc, err := service.New(service.Config{ID: id, PersistPath: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	return svc
}

// liveCount reads a service's durable-log live-record count.
func liveCount(t *testing.T, svc *service.Service) uint64 {
	t.Helper()
	st := svc.Stats()
	if st.Persistence == nil {
		t.Fatal("service has no persistence stats")
	}
	return st.Persistence.LiveRecords
}

// The acceptance scenario: three verifiers, one of them lying, decide on
// honest and forged proofs; the majority matches ground truth both ways,
// the liar's reputation strictly decreases on every decision, and one
// anti-entropy round leaves all three durable logs with the same live
// record count.
func TestThreeVerifiersOneLiar(t *testing.T) {
	services := []*service.Service{
		newPersistedService(t, "verify-a"),
		newPersistedService(t, "verify-b"),
		newPersistedService(t, "liar"),
	}
	registry := reputation.NewRegistry()
	q, err := New(Config{
		Members: []Member{
			{ID: "verify-a", Client: transport.DialInProc(services[0])},
			{ID: "verify-b", Client: transport.DialInProc(services[1])},
			{ID: "liar", Client: transport.DialInProc(flipHandler{inner: services[2]})},
		},
		Registry: registry,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Honest proof: ground truth is acceptance; the liar claims rejection.
	repBefore := registry.Reputation("liar")
	res, err := q.VerifyAnnouncement(ctx, pdAnnouncement(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("quorum rejected an honest proof")
	}
	if res.Dissents != 1 || len(res.Votes) != 3 || len(res.Abstained) != 0 {
		t.Fatalf("dissent report = %d dissents, %d votes, %v abstained; want 1/3/none",
			res.Dissents, len(res.Votes), res.Abstained)
	}
	if !res.Verdict.Accepted {
		t.Fatalf("representative verdict = %+v, want an accepting one", res.Verdict)
	}
	repAfter := registry.Reputation("liar")
	if repAfter >= repBefore {
		t.Fatalf("liar reputation %f -> %f, want a strict decrease", repBefore, repAfter)
	}
	for _, id := range []string{"verify-a", "verify-b"} {
		if registry.Reputation(id) <= 0.5 {
			t.Errorf("honest %s at %f, want > 0.5", id, registry.Reputation(id))
		}
	}
	for _, v := range res.Votes {
		if (v.VerifierID == "liar") != v.Dissented {
			t.Errorf("vote %s: dissented=%v", v.VerifierID, v.Dissented)
		}
	}

	// Forged proof: ground truth is rejection; the liar flips to acceptance.
	repBefore = repAfter
	res, err = q.VerifyAnnouncement(ctx, forgedAnnouncement(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("quorum accepted a forged proof")
	}
	if res.Dissents != 1 {
		t.Fatalf("dissents = %d, want 1 (the liar)", res.Dissents)
	}
	if repAfter = registry.Reputation("liar"); repAfter >= repBefore {
		t.Fatalf("liar reputation %f -> %f, want a strict decrease", repBefore, repAfter)
	}
	// The rejected inventor was reported to the reputation system.
	if registry.Reputation("shady-inventor") >= 0.5 {
		t.Errorf("shady inventor at %f, want < 0.5", registry.Reputation("shady-inventor"))
	}

	// Skew the histories: extra verdicts only the first verifier has. The
	// cache key is content-addressed over the raw bytes, so a JSON field
	// the game parser ignores still makes each a distinct record.
	for i := 0; i < 4; i++ {
		ann := pdAnnouncement(t)
		ann.Game = append(append([]byte(nil), ann.Game[:len(ann.Game)-1]...), []byte(fmt.Sprintf(`,"skew":%d}`, i))...)
		if _, err := services[0].VerifyAnnouncement(ctx, ann); err != nil {
			t.Fatal(err)
		}
	}
	// Appends are asynchronous, so counting via SyncOffer — whose manifest
	// snapshot runs behind the flusher's queue drain — is deterministic
	// where a bare Stats() read would race the flusher.
	counts := func() []int {
		out := make([]int, len(services))
		for i, svc := range services {
			offer, err := svc.SyncOffer()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = len(offer.Have)
		}
		return out
	}
	before := counts()
	if before[0] == before[1] {
		t.Fatalf("histories not skewed before anti-entropy: %v", before)
	}

	// One full anti-entropy round: every member pulls from every other.
	for i, dst := range services {
		for j, src := range services {
			if i == j {
				continue
			}
			if _, _, err := dst.PullFrom(ctx, transport.DialInProc(src)); err != nil {
				t.Fatalf("pull %d<-%d: %v", i, j, err)
			}
		}
	}
	after := counts()
	if after[0] != after[1] || after[1] != after[2] {
		t.Fatalf("live record counts diverge after one round: %v", after)
	}
	if after[0] < before[0] {
		t.Fatalf("anti-entropy lost records: %v -> %v", before, after)
	}
	// The operator-facing stats agree: by now every flusher has drained
	// (each service served or ran a sync command), so the Stats read is
	// no longer racing the append queue.
	for i, svc := range services {
		if got := liveCount(t, svc); got != uint64(after[i]) {
			t.Errorf("service %d Stats live = %d, manifest = %d", i, got, after[i])
		}
	}
}

// A dead member abstains; the survivors still form a quorum.
func TestQuorumToleratesAbstention(t *testing.T) {
	svcA := newPersistedService(t, "a")
	svcB := newPersistedService(t, "b")
	registry := reputation.NewRegistry()
	q, err := New(Config{
		Members: []Member{
			{ID: "a", Client: transport.DialInProc(svcA)},
			{ID: "b", Client: transport.DialInProc(svcB)},
			{ID: "dead", Client: failingClient{}},
		},
		Registry:    registry,
		CallTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.VerifyAnnouncement(context.Background(), pdAnnouncement(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || len(res.Votes) != 2 {
		t.Fatalf("result = %+v, want acceptance on 2 votes", res)
	}
	if len(res.Abstained) != 1 || res.Abstained[0] != "dead" {
		t.Fatalf("abstained = %v, want [dead]", res.Abstained)
	}
	// Abstention is not dissent: the dead member's reputation is untouched.
	if registry.Reputation("dead") != 0.5 {
		t.Errorf("dead member reputation moved to %f", registry.Reputation("dead"))
	}
}

// Every member failing is an error, not a verdict.
func TestQuorumAllAbstained(t *testing.T) {
	q, err := New(Config{
		Members:  []Member{{ID: "dead", Client: failingClient{}}},
		Registry: reputation.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.VerifyAnnouncement(context.Background(), pdAnnouncement(t)); !errors.Is(err, ErrAllAbstained) {
		t.Fatalf("err = %v, want ErrAllAbstained", err)
	}
}

// An even, equal-weight split surfaces the registry's ErrTie.
func TestQuorumTieSurfaces(t *testing.T) {
	honest := newPersistedService(t, "honest")
	liarBase := newPersistedService(t, "liar")
	q, err := New(Config{
		Members: []Member{
			{ID: "honest", Client: transport.DialInProc(honest)},
			{ID: "liar", Client: transport.DialInProc(flipHandler{inner: liarBase})},
		},
		Registry: reputation.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.VerifyAnnouncement(context.Background(), pdAnnouncement(t)); !errors.Is(err, reputation.ErrTie) {
		t.Fatalf("err = %v, want reputation.ErrTie", err)
	}
}

// Once a member's reputation falls below the threshold it is no longer
// consulted — the paper's exclusion of audited misbehavers.
func TestQuorumThresholdExcludesDecayedMember(t *testing.T) {
	services := []*service.Service{
		newPersistedService(t, "verify-a"),
		newPersistedService(t, "verify-b"),
		newPersistedService(t, "liar"),
	}
	registry := reputation.NewRegistry()
	q, err := New(Config{
		Members: []Member{
			{ID: "verify-a", Client: transport.DialInProc(services[0])},
			{ID: "verify-b", Client: transport.DialInProc(services[1])},
			{ID: "liar", Client: transport.DialInProc(flipHandler{inner: services[2]})},
		},
		Registry:  registry,
		Threshold: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := q.VerifyAnnouncement(ctx, pdAnnouncement(t)); err != nil {
		t.Fatal(err)
	}
	// One dissent put the liar at 1/3 < 0.4: the next decision runs
	// without it.
	res, err := q.VerifyAnnouncement(ctx, forgedAnnouncement(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Votes) != 2 || res.Dissents != 0 {
		t.Fatalf("votes = %d, dissents = %d; want 2 votes, 0 dissents (liar excluded)",
			len(res.Votes), res.Dissents)
	}
}

// A signature is checked before the panel is consulted: a forgery naming
// someone else's key with a signature that does not verify is refused, no
// member votes, and nobody — the named party least of all — is charged.
// Only a signature-verified identity may be charged: a correctly signed
// forgery is still voted down and charged to its signer.
func TestVerifyAnnouncementRefusesBadSignature(t *testing.T) {
	newPanel := func(t *testing.T) (*Client, *reputation.Registry) {
		registry := reputation.NewRegistry()
		q, err := New(Config{
			Members: []Member{
				{ID: "verify-a", Client: transport.DialInProc(newPersistedService(t, "verify-a"))},
				{ID: "verify-b", Client: transport.DialInProc(newPersistedService(t, "verify-b"))},
				{ID: "liar", Client: transport.DialInProc(flipHandler{inner: newPersistedService(t, "liar")})},
			},
			Registry: registry,
		})
		if err != nil {
			t.Fatal(err)
		}
		return q, registry
	}
	key, err := identity.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	party := string(key.ID())

	t.Run("garbage signature naming a victim", func(t *testing.T) {
		q, registry := newPanel(t)
		framed := forgedAnnouncement(t)
		framed.InventorID = party
		framed.Signature = []byte("garbage")
		res, err := q.VerifyAnnouncement(context.Background(), framed)
		if err == nil {
			t.Error("an announcement whose signature does not verify was not refused")
		}
		if res != nil && len(res.Votes) != 0 {
			t.Errorf("%d members voted on it", len(res.Votes))
		}
		if got := registry.Reputation(party); got != 0.5 {
			t.Errorf("victim's reputation moved to %.3f on a forgery naming it", got)
		}
		if events := registry.Events(); len(events) != 0 {
			t.Errorf("refused announcement recorded %d events: %+v", len(events), events)
		}
	})

	t.Run("signed forgery charged to its signer", func(t *testing.T) {
		q, registry := newPanel(t)
		signed, err := core.SignAnnouncement(key, forgedAnnouncement(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.VerifyAnnouncement(context.Background(), signed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted || len(res.Votes) != 3 {
			t.Fatalf("result = %+v, want a rejection on 3 votes", res)
		}
		if got := registry.Reputation(party); got >= 0.5 {
			t.Errorf("signer's reputation %.3f, want < 0.5", got)
		}
	})
}

func TestNewValidation(t *testing.T) {
	reg := reputation.NewRegistry()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no members", Config{Registry: reg}},
		{"no registry", Config{Members: []Member{{ID: "a", Client: failingClient{}}}}},
		{"empty member ID", Config{Members: []Member{{Client: failingClient{}}}, Registry: reg}},
		{"nil member client", Config{Members: []Member{{ID: "a"}}, Registry: reg}},
		{"duplicate member", Config{Members: []Member{
			{ID: "a", Client: failingClient{}}, {ID: "a", Client: failingClient{}},
		}, Registry: reg}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Error("config accepted")
			}
		})
	}
}
