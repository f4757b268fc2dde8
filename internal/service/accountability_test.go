package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rationality/internal/core"
	"rationality/internal/gossip"
	"rationality/internal/identity"
	"rationality/internal/reputation"
	"rationality/internal/store"
	"rationality/internal/transport"
	"rationality/internal/trust"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newTrustPolicy builds a trust policy over a fresh registry, persisted
// under the test's temp dir.
func newTrustPolicy(t *testing.T, dir string) *trust.Policy {
	t.Helper()
	pol, err := trust.New(trust.Config{
		Registry: reputation.NewRegistry(),
		Path:     dir + "/trust.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// newLyingService starts a keyed, persisted service whose counting
// procedure rejects what honest verifiers accept: every verdict it
// vouches for is a provable lie under local re-verification.
func newLyingService(t *testing.T, id string, key *identity.KeyPair) *Service {
	t.Helper()
	s := newTestService(t, Config{ID: id, PersistPath: t.TempDir(), Key: key})
	s.register(&countingProc{format: "counting/v1", accept: false})
	return s
}

// verifyPayloads runs one verification per payload on s.
func verifyPayloads(t *testing.T, s *Service, tag string, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		ann := announcementFor("inv", fmt.Sprintf(`{"%s":%d}`, tag, i))
		if _, err := s.VerifyAnnouncement(ctx, ann); err != nil {
			t.Fatal(err)
		}
	}
}

// The accountability loop end to end: a Byzantine peer's vouched verdicts
// are ingested, the audit re-verifier refutes them one by one, the trust
// policy quarantines the peer by evidence, the federation gate then
// refuses its deltas, and the lies themselves are repaired in the local
// log and cache.
func TestAuditRefutationQuarantinesLyingPeer(t *testing.T) {
	const lies = 4
	keyA, keyZ := testKeyPair(t), testKeyPair(t)
	byzID := string(keyZ.ID())

	z := newLyingService(t, "byz", keyZ)
	verifyPayloads(t, z, "z", lies)

	dir := t.TempDir()
	pol := newTrustPolicy(t, dir)
	a := newTestService(t, Config{
		ID: "honest", PersistPath: dir, Key: keyA,
		PeerKeys: []identity.PartyID{keyZ.ID()},
		Trust:    pol, AuditRate: 1,
	})
	a.register(&countingProc{format: "counting/v1", accept: true})

	applied, err := signedPull(t, a, z)
	if err != nil {
		t.Fatalf("pull from byzantine peer: %v", err)
	}
	if applied != lies {
		t.Fatalf("applied %d records, want %d", applied, lies)
	}

	// Every ingested lie is audited (AuditRate 1); the third refutation
	// drops the peer's reputation below the default threshold.
	waitFor(t, 5*time.Second, "audit refutations to quarantine the peer", func() bool {
		return pol.State(byzID) == trust.Quarantined
	})
	waitFor(t, 5*time.Second, "all audits to drain", func() bool {
		return a.Stats().Audits >= lies
	})

	st := a.Stats()
	if st.AuditRefutations < 3 {
		t.Fatalf("AuditRefutations = %d, want >= 3", st.AuditRefutations)
	}
	if st.Federation == nil || st.Federation.Quarantined != 1 {
		t.Fatalf("Federation.Quarantined = %+v, want 1", st.Federation)
	}
	peer, ok := st.Federation.Peers[byzID]
	if !ok {
		t.Fatalf("no federation stats for byzantine peer %s", byzID)
	}
	if peer.State != string(trust.Quarantined) || peer.Refutations < 3 {
		t.Fatalf("peer stats = %+v, want quarantined with >= 3 refutations", peer)
	}

	// The lies were repaired: local re-verification's verdicts replaced
	// the vouched ones in cache and log, so the service now answers true.
	for i := 0; i < lies; i++ {
		v, err := a.VerifyAnnouncement(context.Background(), announcementFor("inv", fmt.Sprintf(`{"z":%d}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		if !v.Accepted {
			t.Fatalf("record %d still carries the Byzantine verdict after repair", i)
		}
	}

	// The gate now refuses the quarantined signer's deltas outright.
	if _, err := signedPull(t, a, z); !errors.Is(err, ErrPeerQuarantined) {
		t.Fatalf("pull after quarantine: err = %v, want ErrPeerQuarantined", err)
	}
	st = a.Stats()
	if st.Federation.RejectedQuarantined != 1 {
		t.Fatalf("RejectedQuarantined = %d, want 1", st.Federation.RejectedQuarantined)
	}
	if st.Federation.Peers[byzID].Rejected != 1 {
		t.Fatalf("peer Rejected = %d, want 1", st.Federation.Peers[byzID].Rejected)
	}

	// Provenance report: the quarantined voucher is named, with standing.
	rep, err := a.ProvenanceReport()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range rep.Peers {
		if p.ID == keyZ.ID() {
			found = true
			// Records may be zero: the audit repairs superseded every one
			// of the liar's live records. The standing is what persists.
			if p.State != string(trust.Quarantined) || p.Refutations < 3 {
				t.Fatalf("provenance peer = %+v, want quarantined with >= 3 refutations", p)
			}
		}
	}
	if !found {
		t.Fatalf("provenance report omits the byzantine voucher: %+v", rep.Peers)
	}
}

// peerRow returns one peer's row of the gossiper's per-peer view.
func peerRow(t *testing.T, g *Gossiper, addr string) gossip.PeerStats {
	t.Helper()
	for _, p := range g.Stats().Peers {
		if p.Address == addr {
			return p
		}
	}
	t.Fatalf("no peer %q in gossiper stats", addr)
	return gossip.PeerStats{}
}

// The replication loop under fire: one Byzantine voucher, one flaky
// (chaos-injected) link to an honest peer. The liar is quarantined by
// audit evidence and skipped without dialing, while honest convergence
// continues across the drops.
func TestByzantineFederationConvergesOverFlakyLink(t *testing.T) {
	const honestRecords, lies = 6, 4
	keyA, keyB, keyZ := testKeyPair(t), testKeyPair(t), testKeyPair(t)
	byzID := string(keyZ.ID())

	b := newKeyedService(t, "honest-b", keyB, keyA.ID())
	verifyPayloads(t, b, "b", honestRecords)
	z := newLyingService(t, "byz", keyZ)
	verifyPayloads(t, z, "z", lies)

	dir := t.TempDir()
	pol := newTrustPolicy(t, dir)
	a := newTestService(t, Config{
		ID: "honest-a", PersistPath: dir, Key: keyA,
		PeerKeys: []identity.PartyID{keyB.ID(), keyZ.ID()},
		Trust:    pol, AuditRate: 1,
	})
	a.register(&countingProc{format: "counting/v1", accept: true})

	// The link to the honest peer is flaky: a fresh fault sequence per
	// (re-)dial, ~30% of calls dropped. The byzantine link is clean — its
	// records arrive fine; it is the evidence in them that convicts.
	var drops atomic.Uint64
	var dialSeq atomic.Int64
	dial := func(addr string) (transport.Client, error) {
		switch addr {
		case "byz":
			return transport.DialInProc(z), nil
		case "honest-b":
			c := transport.Chaos(transport.DialInProc(b), transport.ChaosConfig{
				Seed: 41 + dialSeq.Add(1),
				Drop: 0.3,
			})
			return chaosCounter{c, &drops}, nil
		default:
			return nil, fmt.Errorf("unknown test peer %q", addr)
		}
	}
	var byzDials atomic.Uint64
	g, err := a.StartGossiper(gossip.Config{
		Peers:      []string{"byz", "honest-b"},
		Interval:   5 * time.Millisecond,
		BackoffMax: 40 * time.Millisecond,
		Jitter:     -1,
		Seed:       1,
		Dial: func(addr string) (transport.Client, error) {
			if addr == "byz" {
				byzDials.Add(1)
			}
			return dial(addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	offerLen := func() int {
		offer, err := a.SyncOffer()
		if err != nil {
			t.Fatal(err)
		}
		return len(offer.Have)
	}
	waitFor(t, 15*time.Second, "liar quarantined, honest log converged, chaos exercised", func() bool {
		return pol.State(byzID) == trust.Quarantined &&
			offerLen() == honestRecords+lies &&
			drops.Load() > 0
	})

	// The loop stops dialing the quarantined signer once it knows who the
	// address speaks for; the honest peer keeps converging regardless.
	waitFor(t, 5*time.Second, "replication loop to skip the quarantined peer", func() bool {
		return peerRow(t, g, "byz").SkippedQuarantine > 0
	})
	dialsAtSkip, skipsAtSkip := byzDials.Load(), peerRow(t, g, "byz").SkippedQuarantine
	waitFor(t, 5*time.Second, "more quarantine skips", func() bool {
		return peerRow(t, g, "byz").SkippedQuarantine >= skipsAtSkip+5
	})
	if got := byzDials.Load(); got != dialsAtSkip {
		t.Fatalf("quarantined peer was dialed while being skipped (%d -> %d dials)", dialsAtSkip, got)
	}
	// A quarantine is this authority's own refusal, never a breaker event;
	// the flaky honest link's drops are what exercise backoff.
	if p := peerRow(t, g, "byz"); p.State != gossip.Healthy || p.Failed != 0 {
		t.Fatalf("quarantined peer's breaker moved: %+v", p)
	}
	if p := peerRow(t, g, "honest-b"); p.Failed == 0 {
		t.Fatalf("flaky link recorded no failed exchange: %+v", p)
	}
	if st := pol.State(string(keyB.ID())); st != trust.Active {
		t.Fatalf("honest peer standing = %s, want active (clean audits must credit)", st)
	}
	st := a.Stats()
	if st.Gossip == nil || len(st.Gossip.Peers) != 2 {
		t.Fatalf("Stats().Gossip.Peers while the loop is running: %+v", st.Gossip)
	}
	// (The engine counts a round when it starts, the service when it
	// completes, so a snapshot may catch one in flight.)
	if st.SyncRounds == 0 || st.SyncRounds > st.Gossip.Rounds {
		t.Fatalf("SyncRounds = %d, engine rounds = %d: completed rounds must count", st.SyncRounds, st.Gossip.Rounds)
	}
}

// chaosCounter folds a chaos client's drop count into a shared total as
// calls fail, so the test can assert the flaky link actually fired even
// though the breaker discards and re-dials clients.
type chaosCounter struct {
	*transport.ChaosClient
	drops *atomic.Uint64
}

func (c chaosCounter) Call(ctx context.Context, req transport.Message) (transport.Message, error) {
	resp, err := c.ChaosClient.Call(ctx, req)
	if errors.Is(err, transport.ErrInjectedDrop) {
		c.drops.Add(1)
	}
	return resp, err
}

// A peer that never answers is backed off from, not punished: the skips
// accumulate while dials stay bounded, and the trust policy is never
// charged — no honest peer is ever quarantined for being down.
func TestDeadPeerBacksOffAndIsNeverCharged(t *testing.T) {
	dir := t.TempDir()
	pol := newTrustPolicy(t, dir)
	a := newTestService(t, Config{ID: "a", PersistPath: dir, Trust: pol})
	var dials atomic.Uint64
	g, err := a.StartGossiper(gossip.Config{
		Peers:      []string{"dead"},
		Interval:   2 * time.Millisecond,
		BackoffMax: 100 * time.Millisecond,
		Jitter:     -1,
		Seed:       1,
		Dial: func(addr string) (transport.Client, error) {
			dials.Add(1)
			return nil, errors.New("connection refused")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	waitFor(t, 10*time.Second, "breaker to open and backoff skips to accumulate", func() bool {
		p := peerRow(t, g, "dead")
		return p.State == gossip.Open && p.SkippedBackoff >= 5
	})
	g.Stop()

	p := peerRow(t, g, "dead")
	if p.ConsecutiveFailures < gossip.DefaultBreakerThreshold {
		t.Fatalf("ConsecutiveFailures = %d, want >= %d", p.ConsecutiveFailures, gossip.DefaultBreakerThreshold)
	}
	if p.Attempts != dials.Load() {
		t.Fatalf("attempts %d != dials %d: every attempt against a dead peer is a dial", p.Attempts, dials.Load())
	}
	if p.SkippedBackoff <= p.Attempts {
		t.Fatalf("dial storm: %d attempts vs only %d backoff skips over %d rounds",
			p.Attempts, p.SkippedBackoff, p.Attempts+p.SkippedBackoff)
	}
	if charged := pol.Snapshot(); len(charged) != 0 || pol.Quarantined() != 0 {
		t.Fatalf("silence was charged to the trust policy: %+v", charged)
	}
}

// Claiming a quarantined identity is not a way out of the breaker: a peer
// whose every delta names a quarantined signer over a signature that does
// not verify has proven nothing, so its failures are peer faults — backed
// off from and tripping the breaker — not this node's own refusals.
func TestForgedQuarantinedSignerClaimIsAPeerFailure(t *testing.T) {
	keyA, keyZ := testKeyPair(t), testKeyPair(t)
	dir := t.TempDir()
	pol := newTrustPolicy(t, dir)
	for i := 0; i < 3; i++ {
		pol.Charge(string(keyZ.ID()), "test: proven refutation")
	}
	if pol.State(string(keyZ.ID())) != trust.Quarantined {
		t.Fatal("setup: signer not quarantined")
	}
	a := newTestService(t, Config{
		ID: "a", PersistPath: dir, Key: keyA,
		PeerKeys: []identity.PartyID{keyZ.ID()}, Trust: pol,
	})
	forger := transport.HandlerFunc(func(_ context.Context, req transport.Message) (transport.Message, error) {
		if req.Type == MsgGossip {
			// The probe's answer is unsigned: claim the same identity there
			// and send the exchange on to the forged delta.
			return transport.NewMessage(MsgGossipSummary, GossipSummaryResponse{
				VerifierID: "forger", Signer: keyZ.ID(), Differ: []byte{0xff},
			})
		}
		return transport.NewMessage(MsgSyncDelta, SyncDeltaResponse{
			VerifierID: "forger", Signer: keyZ.ID(), Signature: make([]byte, 64),
		})
	})
	g, err := a.StartGossiper(gossip.Config{
		Peers:      []string{"forger"},
		Interval:   2 * time.Millisecond,
		BackoffMax: 100 * time.Millisecond,
		Jitter:     -1,
		Seed:       1,
		Dial:       func(string) (transport.Client, error) { return transport.DialInProc(forger), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	waitFor(t, 10*time.Second, "breaker to open on the forger", func() bool {
		p := peerRow(t, g, "forger")
		return p.State == gossip.Open && p.SkippedBackoff >= 5
	})
	g.Stop()
	p := peerRow(t, g, "forger")
	if p.Signer != "" || p.SkippedQuarantine != 0 {
		t.Fatalf("an unverified signer claim was believed: %+v", p)
	}
	if p.Failed != p.Attempts || p.Failed < gossip.DefaultBreakerThreshold {
		t.Fatalf("forged deltas were not charged as peer failures: %+v", p)
	}
	if n := a.Stats().Federation.RejectedBadSig; n != p.Failed {
		t.Fatalf("RejectedBadSig = %d, want one per failed exchange (%d)", n, p.Failed)
	}
}

// A certificate must not outlive the verdict it signs: when the audit
// refutes and repairs a certified lying record, the liar's certificate
// goes with the lie instead of being served beside the correction. The
// repair is pushed to the honest peer at once, with no round run after
// the one that opened the client; the records it merely ingested are not.
func TestAuditRepairDropsRefutedCertificate(t *testing.T) {
	a := newTestService(t, Config{ID: "honest", PersistPath: t.TempDir(), AuditRate: 1})
	a.register(&countingProc{format: "counting/v1", accept: true})
	peer := newTestService(t, Config{ID: "peer", PersistPath: t.TempDir()})
	g, err := a.StartGossiper(gossip.Config{
		Peers: []string{"peer"}, Seed: 1, Logf: t.Logf,
		Dial: func(string) (transport.Client, error) { return transport.DialInProc(peer), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	if err := g.Round(context.Background()); err != nil {
		t.Fatal(err)
	}

	certified := func(ann core.Announcement, accepted bool) store.Record {
		t.Helper()
		req, err := json.Marshal(core.VerifyRequest{Format: ann.Format, Game: ann.Game, Advice: ann.Advice, Proof: ann.Proof})
		if err != nil {
			t.Fatal(err)
		}
		key := identity.DigestBytes([]byte(ann.Format), ann.Game, ann.Advice, ann.Proof)
		v := core.Verdict{Accepted: accepted, Format: ann.Format, Reason: "vouched by a peer"}
		cert, err := core.EncodeCertificate(&core.Certificate{
			Key: key.String(), Verdict: v, Panel: []byte{0x01}, Sigs: [][]byte{[]byte("sig")},
		})
		if err != nil {
			t.Fatal(err)
		}
		return store.Record{Key: key, Verdict: v, Request: req, Cert: cert, Origin: "did:rationality:voucher"}
	}
	lieAnn, truthAnn := announcementFor("inv", `{"certified":"lie"}`), announcementFor("inv", `{"certified":"truth"}`)
	lie, truth := certified(lieAnn, false), certified(truthAnn, true)
	lie.Stamp, truth.Stamp = 1, 2
	// No panel keyset: certificates ride through ingest unverified.
	if n, err := a.Ingest([]store.Record{lie, truth}); err != nil || n != 2 {
		t.Fatalf("Ingest = %d, %v; want both records applied", n, err)
	}
	waitFor(t, 5*time.Second, "both records audited", func() bool { return a.Stats().Audits >= 2 })
	if got := a.Stats().AuditRefutations; got != 1 {
		t.Fatalf("AuditRefutations = %d, want 1", got)
	}

	if c, found, err := a.Certificate(lie.Key); err != nil || found {
		t.Fatalf("refuted record still certified after repair: cert=%+v err=%v", c, err)
	}
	if v, err := a.VerifyAnnouncement(context.Background(), lieAnn); err != nil || !v.Accepted {
		t.Fatalf("repaired verdict = %+v, %v; want the locally verified accept", v, err)
	}
	// The confirmed record keeps its certificate, and a plain re-install
	// of a same-polarity verdict still carries one forward.
	a.cache.Put(truth.Key, truth.Verdict)
	if _, found, err := a.Certificate(truth.Key); err != nil || !found {
		t.Fatalf("confirmed record lost its certificate: found=%v err=%v", found, err)
	}

	waitFor(t, 5*time.Second, "the repair pushed to the peer", func() bool {
		_, held := manifestOfService(t, peer)[lie.Key]
		return held
	})
	g.Stop()
	m := manifestOfService(t, peer)
	if got := m[lie.Key]; got.Rejected || got.Certified || len(m) != 1 {
		t.Fatalf("peer holds %+v, want the uncertified accepting repair alone", m)
	}
	if r := g.Stats().Rounds; r != 1 {
		t.Fatalf("%d rounds ran, want only the one that opened the client", r)
	}
}

// A peer that vouches against this authority's own locally verified
// verdict is refused at ingest and charged immediately — no audit needed,
// the contradiction is the evidence.
func TestIngestRefutationChargesVouchingPeer(t *testing.T) {
	keyA, keyZ := testKeyPair(t), testKeyPair(t)
	byzID := string(keyZ.ID())

	// Padding records push the clashing record's stamp past the honest
	// authority's copy, so the sync delta actually carries it.
	z := newLyingService(t, "byz", keyZ)
	verifyPayloads(t, z, "pad", 3)
	verifyPayloads(t, z, "clash", 1)

	dir := t.TempDir()
	pol := newTrustPolicy(t, dir)
	a := newTestService(t, Config{
		ID: "honest", PersistPath: dir, Key: keyA,
		PeerKeys: []identity.PartyID{keyZ.ID()},
		Trust:    pol,
	})
	a.register(&countingProc{format: "counting/v1", accept: true})
	verifyPayloads(t, a, "clash", 1) // same announcement, honest verdict

	applied, err := signedPull(t, a, z)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 {
		t.Fatalf("applied %d records, want 3 (the padding): the contradiction must be refused", applied)
	}
	if got := a.Stats().IngestRefutations; got != 1 {
		t.Fatalf("IngestRefutations = %d, want 1", got)
	}
	status := pol.Status(byzID)
	if status.Refutations != 1 {
		t.Fatalf("trust refutations = %d, want 1", status.Refutations)
	}
	if v, err := a.VerifyAnnouncement(context.Background(), announcementFor("inv", `{"clash":0}`)); err != nil || !v.Accepted {
		t.Fatalf("local verdict flipped by a refused record: v=%+v err=%v", v, err)
	}
}

// A quarantine outlives the process that proved it: a fresh service over
// a reloaded trust policy reports the peer quarantined — in Stats and in
// the provenance report — with zero sync traffic.
func TestQuarantineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const peer = "did:rationality:liar"

	pol := newTrustPolicy(t, dir)
	for i := 0; i < 3; i++ {
		pol.Charge(peer, "test: proven refutation")
	}
	if pol.State(peer) != trust.Quarantined {
		t.Fatalf("peer standing = %s after 3 charges, want quarantined", pol.State(peer))
	}

	// "Restart": a new policy loads the persisted state file; the new
	// service sees the quarantine without a single exchange.
	reloaded, err := trust.New(trust.Config{
		Registry: reputation.NewRegistry(),
		Path:     dir + "/trust.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.State(peer) != trust.Quarantined {
		t.Fatalf("reloaded standing = %s, want quarantined", reloaded.State(peer))
	}
	s := newTestService(t, Config{ID: "svc", PersistPath: t.TempDir(), Trust: reloaded})
	st := s.Stats()
	if st.Federation == nil || st.Federation.Quarantined != 1 {
		t.Fatalf("Federation after restart = %+v, want Quarantined=1", st.Federation)
	}
	if got := st.Federation.Peers[peer].State; got != string(trust.Quarantined) {
		t.Fatalf("peer state after restart = %q, want quarantined", got)
	}
	rep, err := s.ProvenanceReport()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range rep.Peers {
		if string(p.ID) == peer && p.State == string(trust.Quarantined) {
			found = true
		}
	}
	if !found {
		t.Fatalf("provenance after restart omits the quarantined peer: %+v", rep.Peers)
	}
}
