package service

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/store"
	"rationality/internal/transport"
)

// testKeyPair generates a fresh signing identity or fails the test.
func testKeyPair(t testing.TB) *identity.KeyPair {
	t.Helper()
	k, err := identity.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// newKeyedService starts a persisted service with a signing key and an
// allowlist, registered with the counting procedure.
func newKeyedService(t *testing.T, id string, key *identity.KeyPair, allow ...identity.PartyID) *Service {
	t.Helper()
	s := newTestService(t, Config{ID: id, PersistPath: t.TempDir(), Key: key, PeerKeys: allow})
	s.register(&countingProc{format: "counting/v1", accept: true})
	return s
}

// signedPull runs one full federation pull: dst's offer through src's
// wire handler, the signed delta back through dst's gate.
func signedPull(t *testing.T, dst, src *Service) (int, error) {
	t.Helper()
	offer, err := dst.SyncOffer()
	if err != nil {
		t.Fatal(err)
	}
	delta := serveOffer(t, src, offer)
	return dst.IngestDelta(offer, delta)
}

// serveOffer routes an offer through src's transport handler and decodes
// the signed delta, exactly as a remote peer would produce it.
func serveOffer(t *testing.T, src *Service, offer SyncOfferRequest) SyncDeltaResponse {
	t.Helper()
	req, err := transport.NewMessage(MsgSyncOffer, offer)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := src.Handle(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var delta SyncDeltaResponse
	if err := resp.Decode(&delta); err != nil {
		t.Fatal(err)
	}
	return delta
}

// verifyN runs n distinct verifications on s.
func verifyN(t *testing.T, s *Service, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := s.VerifyAnnouncement(ctx, announcementFor("inv", fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
}

// Two keyed authorities that allowlist each other converge in one pull
// round, the ingested records carry the signer's provenance, and the
// per-peer counters account for the transfer.
func TestFederationKeyedConvergence(t *testing.T) {
	const n = 5
	keyA, keyB := testKeyPair(t), testKeyPair(t)
	a := newKeyedService(t, "a", keyA, keyB.ID())
	b := newKeyedService(t, "b", keyB, keyA.ID())
	verifyN(t, a, n)

	applied, err := signedPull(t, b, a)
	if err != nil {
		t.Fatalf("keyed pull rejected: %v", err)
	}
	if applied != n {
		t.Fatalf("applied %d records, want %d", applied, n)
	}

	// Converged: identical manifests, so a second pull moves nothing.
	if applied, err = signedPull(t, b, a); err != nil || applied != 0 {
		t.Fatalf("second pull: applied=%d err=%v, want 0/nil", applied, err)
	}
	offerA, err := a.SyncOffer()
	if err != nil {
		t.Fatal(err)
	}
	offerB, err := b.SyncOffer()
	if err != nil {
		t.Fatal(err)
	}
	if len(offerA.Have) != n || len(offerB.Have) != n {
		t.Fatalf("manifests differ in size: a=%d b=%d, want %d", len(offerA.Have), len(offerB.Have), n)
	}

	// Provenance: a's records are its own; b's pulled copies name a's key
	// as the authority that vouched for the transfer.
	provA, err := a.Provenance()
	if err != nil {
		t.Fatal(err)
	}
	if provA[keyA.ID()] != n {
		t.Fatalf("a.Provenance = %v, want %d records under a's own key", provA, n)
	}
	provB, err := b.Provenance()
	if err != nil {
		t.Fatal(err)
	}
	if provB[keyA.ID()] != n {
		t.Fatalf("b.Provenance = %v, want %d records vouched by a", provB, n)
	}

	st := b.Stats()
	if st.Federation == nil {
		t.Fatal("keyed service reports no federation stats")
	}
	if st.Federation.Signer != keyB.ID() || st.Federation.TrustedPeers != 1 {
		t.Fatalf("federation identity = %+v", st.Federation)
	}
	peer := st.Federation.Peers[string(keyA.ID())]
	if peer.Deltas != 2 || peer.Records != n || peer.Rejected != 0 {
		t.Fatalf("peer counters = %+v, want 2 deltas / %d records / 0 rejected", peer, n)
	}
}

// An unsigned delta is rejected before ingest when an allowlist is
// configured — and accepted when it is not (single-operator mode).
func TestFederationRejectsUnsignedDelta(t *testing.T) {
	src := newTestService(t, Config{ID: "legacy", PersistPath: t.TempDir()})
	src.register(&countingProc{format: "counting/v1", accept: true})
	verifyN(t, src, 3)

	gated := newKeyedService(t, "gated", testKeyPair(t), testKeyPair(t).ID())
	applied, err := signedPull(t, gated, src)
	if !errors.Is(err, ErrUnsignedDelta) {
		t.Fatalf("unsigned delta: applied=%d err=%v, want ErrUnsignedDelta", applied, err)
	}
	st := gated.Stats()
	if st.Federation.RejectedUnsigned != 1 {
		t.Fatalf("RejectedUnsigned = %d, want 1", st.Federation.RejectedUnsigned)
	}
	if st.Ingested != 0 || st.Persistence.Ingested != 0 || st.CacheEntries != 0 {
		t.Fatalf("rejected delta leaked into state: %+v", st)
	}

	open := newTestService(t, Config{ID: "open", PersistPath: t.TempDir()})
	open.register(&countingProc{format: "counting/v1", accept: true})
	if applied, err := signedPull(t, open, src); err != nil || applied != 3 {
		t.Fatalf("no-allowlist pull from unkeyed peer: applied=%d err=%v, want 3/nil", applied, err)
	}
}

// A delta signed by a key outside the allowlist is rejected and counted
// in its cause bucket, with no per-peer row: the signer is unproven.
func TestFederationRejectsUnknownSigner(t *testing.T) {
	rogueKey := testKeyPair(t)
	rogue := newKeyedService(t, "rogue", rogueKey)
	verifyN(t, rogue, 2)

	trusted := testKeyPair(t)
	dst := newKeyedService(t, "dst", testKeyPair(t), trusted.ID())
	_, err := signedPull(t, dst, rogue)
	if !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("unknown signer: err = %v, want ErrUnknownSigner", err)
	}
	st := dst.Stats()
	if st.Federation.RejectedUnknown != 1 {
		t.Fatalf("RejectedUnknown = %d, want 1", st.Federation.RejectedUnknown)
	}
	if got, ok := st.Federation.Peers[string(rogueKey.ID())]; ok {
		t.Fatalf("rogue peer has a row %+v, want none", got)
	}
	if st.Ingested != 0 {
		t.Fatal("unknown signer's records were ingested")
	}
}

// Tampered records — the frames no longer match the signature — are
// rejected even when the signer is allowlisted: a forged delta cannot
// ride a trusted identity.
func TestFederationRejectsForgedRecords(t *testing.T) {
	keyA := testKeyPair(t)
	src := newKeyedService(t, "src", keyA)
	verifyN(t, src, 2)
	dst := newKeyedService(t, "dst", testKeyPair(t), keyA.ID())

	offer, err := dst.SyncOffer()
	if err != nil {
		t.Fatal(err)
	}
	delta := serveOffer(t, src, offer)
	delta.Records[len(delta.Records)-1] ^= 0xff // the forgery
	if _, err := dst.IngestDelta(offer, delta); !errors.Is(err, identity.ErrBadSignature) {
		t.Fatalf("forged records: err = %v, want ErrBadSignature", err)
	}
	if st := dst.Stats(); st.Federation.RejectedBadSig != 1 || st.Ingested != 0 {
		t.Fatalf("forgery counters = %+v", st.Federation)
	}
}

// A signer string is whatever the sender wrote: refusing 500 forged ones
// leaves no per-peer row, whether the refusal is an unknown signer (an
// allowlist is set) or a bad signature (a key, no allowlist); each still
// counts in its cause bucket. A bad signature from an allowlisted signer
// does land in that signer's row.
func TestFederationForgedSignersGetNoRows(t *testing.T) {
	listed := testKeyPair(t)
	for _, tc := range []struct {
		name  string
		allow []identity.PartyID
		cause func(*FederationStats) uint64
	}{
		{"allowlist", []identity.PartyID{listed.ID()}, func(f *FederationStats) uint64 { return f.RejectedUnknown }},
		{"key-only", nil, func(f *FederationStats) uint64 { return f.RejectedBadSig }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := newKeyedService(t, "dst", testKeyPair(t), tc.allow...)
			offer, err := dst.SyncOffer()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				delta := SyncDeltaResponse{Signer: identity.PartyID(fmt.Sprintf("junk\n%d", i)), Signature: []byte{1}}
				if _, err := dst.IngestDelta(offer, delta); err == nil {
					t.Fatalf("forged signer %q was admitted", delta.Signer)
				}
			}
			fed := dst.Stats().Federation
			if len(fed.Peers) != 0 || tc.cause(fed) != 500 {
				t.Fatalf("after 500 forged signers: %d rows, cause bucket %d; want 0 rows, 500", len(fed.Peers), tc.cause(fed))
			}
		})
	}
	dst := newKeyedService(t, "dst", testKeyPair(t), listed.ID())
	offer, err := dst.SyncOffer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.IngestDelta(offer, SyncDeltaResponse{Signer: listed.ID(), Signature: []byte{1}}); err == nil {
		t.Fatal("a bad signature from an allowlisted signer was admitted")
	}
	fed := dst.Stats().Federation
	if got := fed.Peers[string(listed.ID())]; got.Rejected != 1 || fed.RejectedBadSig != 1 {
		t.Fatalf("allowlisted signer's row %+v, RejectedBadSig %d; want 1 rejection in both", got, fed.RejectedBadSig)
	}
}

// A delta captured from one exchange does not verify against another
// offer: the signature binds the offer digest, so replay is refused.
func TestFederationRejectsReplayedDelta(t *testing.T) {
	keyA := testKeyPair(t)
	src := newKeyedService(t, "src", keyA)
	verifyN(t, src, 2)
	dst := newKeyedService(t, "dst", testKeyPair(t), keyA.ID())

	emptyOffer, err := dst.SyncOffer()
	if err != nil {
		t.Fatal(err)
	}
	captured := serveOffer(t, src, emptyOffer)

	// The destination's state — and therefore its offer — moves on (with
	// an announcement distinct from anything src holds, so the captured
	// delta's records all remain applicable below).
	if _, err := dst.VerifyAnnouncement(context.Background(),
		announcementFor("inv", `{"i":"replay-probe"}`)); err != nil {
		t.Fatal(err)
	}
	laterOffer, err := dst.SyncOffer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.IngestDelta(laterOffer, captured); !errors.Is(err, identity.ErrBadSignature) {
		t.Fatalf("replayed delta: err = %v, want ErrBadSignature", err)
	}
	// Against its own offer the captured delta is still valid — replay
	// protection must not break the legitimate exchange.
	if applied, err := dst.IngestDelta(emptyOffer, captured); err != nil || applied != 2 {
		t.Fatalf("legitimate delta after replay attempt: applied=%d err=%v", applied, err)
	}
}

// A malformed allowlist entry is a startup error, not a silent
// never-matching allowlist.
func TestFederationRejectsBadPeerKey(t *testing.T) {
	_, err := New(Config{ID: "x", PeerKeys: []identity.PartyID{"not-a-key"}})
	if err == nil {
		t.Fatal("malformed peer key accepted at startup")
	}
}

// Even an UNFEDERATED service (no key, no allowlist — the pre-federation
// config) must not persist a claimed signer it cannot prove: a present
// signature is verified, and a bogus identity claim is rejected instead
// of becoming on-disk provenance.
func TestUnfederatedServiceVerifiesClaimedSigner(t *testing.T) {
	keyA := testKeyPair(t)
	src := newKeyedService(t, "src", keyA)
	verifyN(t, src, 2)
	dst := newTestService(t, Config{ID: "dst", PersistPath: t.TempDir()})
	dst.register(&countingProc{format: "counting/v1", accept: true})

	offer, err := dst.SyncOffer()
	if err != nil {
		t.Fatal(err)
	}
	delta := serveOffer(t, src, offer)

	// A forged claim: the records are genuine, but the peer names some
	// other authority as the signer.
	forged := delta
	forged.Signer = testKeyPair(t).ID()
	if _, err := dst.IngestDelta(offer, forged); !errors.Is(err, identity.ErrBadSignature) {
		t.Fatalf("forged signer claim on unfederated service: err = %v, want ErrBadSignature", err)
	}
	if prov, err := dst.Provenance(); err != nil || len(prov) != 0 {
		t.Fatalf("forged claim left provenance behind: %v (err=%v)", prov, err)
	}

	// The genuine signed delta is accepted and its provenance is the
	// provable signer.
	applied, err := dst.IngestDelta(offer, delta)
	if err != nil || applied != 2 {
		t.Fatalf("genuine signed delta on unfederated service: applied=%d err=%v", applied, err)
	}
	prov, err := dst.Provenance()
	if err != nil {
		t.Fatal(err)
	}
	if prov[keyA.ID()] != 2 {
		t.Fatalf("Provenance = %v, want 2 records vouched by src", prov)
	}
}

// A keyed puller with no allowlist (rolling-upgrade posture) accepting
// unsigned deltas must not grow a blank-identity per-peer stats row.
func TestUnsignedAcceptHasNoBlankPeerRow(t *testing.T) {
	legacy := newTestService(t, Config{ID: "legacy", PersistPath: t.TempDir()})
	legacy.register(&countingProc{format: "counting/v1", accept: true})
	verifyN(t, legacy, 2)
	dst := newKeyedService(t, "dst", testKeyPair(t)) // keyed, no allowlist
	if applied, err := signedPull(t, dst, legacy); err != nil || applied != 2 {
		t.Fatalf("unsigned pull: applied=%d err=%v", applied, err)
	}
	fed := dst.Stats().Federation
	if _, ok := fed.Peers[""]; ok {
		t.Fatalf("blank-identity peer row present: %+v", fed.Peers)
	}
}

// An unsigned delta proves nothing about custody: per-record origins
// claimed on the wire are cleared, not persisted — otherwise anyone who
// can answer a sync-offer could fabricate provenance under a trusted
// authority's name.
func TestUnsignedDeltaWireOriginsCleared(t *testing.T) {
	dst := newTestService(t, Config{ID: "dst", PersistPath: t.TempDir()})
	dst.register(&countingProc{format: "counting/v1", accept: true})
	offer, err := dst.SyncOffer()
	if err != nil {
		t.Fatal(err)
	}
	framedRecs, err := store.EncodeRecords([]store.Record{{
		Key:     identity.DigestBytes([]byte("claimed")),
		Stamp:   1,
		Origin:  testKeyPair(t).ID(), // the fabricated custody claim
		Verdict: core.Verdict{Accepted: true, Format: "counting/v1"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	applied, err := dst.IngestDelta(offer, SyncDeltaResponse{VerifierID: "anon", Count: 1, Records: framedRecs})
	if err != nil || applied != 1 {
		t.Fatalf("unsigned ingest: applied=%d err=%v", applied, err)
	}
	prov, err := dst.Provenance()
	if err != nil {
		t.Fatal(err)
	}
	if prov[""] != 1 || len(prov) != 1 {
		t.Fatalf("Provenance = %v, want 1 unattributed record and nothing else", prov)
	}
}
