package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"rationality/internal/core"
	"rationality/internal/gossip"
	"rationality/internal/identity"
	"rationality/internal/store"
	"rationality/internal/transport"
)

// newSyncedPair starts two persisted services, verifies n distinct
// announcements on the first, and returns both.
func newSyncedPair(t *testing.T, n int) (src, dst *Service) {
	t.Helper()
	src = newTestService(t, Config{ID: "src", PersistPath: t.TempDir()})
	src.register(&countingProc{format: "counting/v1", accept: true})
	dst = newTestService(t, Config{ID: "dst", PersistPath: t.TempDir()})
	dst.register(&countingProc{format: "counting/v1", accept: true})
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := src.VerifyAnnouncement(ctx, announcementFor("inv", fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	return src, dst
}

// pullOverWire runs one anti-entropy pull through the actual wire
// messages: dst's offer travels to src's handler, the framed delta comes
// back, dst ingests it.
func pullOverWire(t *testing.T, dst, src *Service) int {
	t.Helper()
	offer, err := dst.SyncOffer()
	if err != nil {
		t.Fatal(err)
	}
	req, err := transport.NewMessage(MsgSyncOffer, offer)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := src.Handle(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgSyncDelta {
		t.Fatalf("reply type = %q, want %q", resp.Type, MsgSyncDelta)
	}
	var delta SyncDeltaResponse
	if err := resp.Decode(&delta); err != nil {
		t.Fatal(err)
	}
	recs, err := store.DecodeRecords(delta.Records)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != delta.Count {
		t.Fatalf("delta framed %d records but declared %d", len(recs), delta.Count)
	}
	applied, err := dst.Ingest(recs)
	if err != nil {
		t.Fatal(err)
	}
	return applied
}

// A pulled delta must land in the receiving service's cache as servable
// history: no misses, no procedure runs, just hits — and the hit/miss
// counters must not move during the ingest itself.
func TestSyncIngestPopulatesCacheWithoutMisses(t *testing.T) {
	const n = 7
	src, dst := newSyncedPair(t, n)
	if applied := pullOverWire(t, dst, src); applied != n {
		t.Fatalf("ingested %d records, want %d", applied, n)
	}

	st := dst.Stats()
	if st.Ingested != n {
		t.Errorf("Stats.Ingested = %d, want %d", st.Ingested, n)
	}
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.Requests != 0 {
		t.Errorf("ingest moved traffic counters: %+v", st)
	}
	if st.CacheEntries != n {
		t.Errorf("CacheEntries = %d, want %d", st.CacheEntries, n)
	}
	if st.Persistence == nil || st.Persistence.Ingested != n || st.Persistence.LiveRecords != n {
		t.Errorf("persistence stats = %+v, want Ingested/LiveRecords %d", st.Persistence, n)
	}
	if srcSt := src.Stats(); srcSt.DeltasServed != 1 {
		t.Errorf("src DeltasServed = %d, want 1", srcSt.DeltasServed)
	}

	// Replicated verdicts serve as pure cache hits.
	ctx := context.Background()
	for i := 0; i < n; i++ {
		v, err := dst.VerifyAnnouncement(ctx, announcementFor("inv", fmt.Sprintf(`{"i":%d}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		if !v.Accepted {
			t.Fatalf("replicated verdict %d not accepted: %+v", i, v)
		}
	}
	st = dst.Stats()
	if st.CacheHits != n || st.CacheMisses != 0 {
		t.Errorf("after replay traffic: hits=%d misses=%d, want %d/0", st.CacheHits, st.CacheMisses, n)
	}

	// A second pull finds both sides converged.
	if applied := pullOverWire(t, dst, src); applied != 0 {
		t.Errorf("second pull applied %d records, want 0", applied)
	}
}

// The sync API refuses to pretend on a service without a durable store.
func TestSyncRequiresStore(t *testing.T) {
	s := newTestService(t, Config{ID: "ephemeral"})
	if _, err := s.SyncOffer(); !errors.Is(err, ErrNoStore) {
		t.Errorf("SyncOffer err = %v, want ErrNoStore", err)
	}
	if _, err := s.ServeSyncOffer(SyncOfferRequest{}); !errors.Is(err, ErrNoStore) {
		t.Errorf("ServeSyncOffer err = %v, want ErrNoStore", err)
	}
	if _, err := s.Ingest(nil); !errors.Is(err, ErrNoStore) {
		t.Errorf("Ingest err = %v, want ErrNoStore", err)
	}
}

// A malformed manifest key is an error, not a panic or a silent skip.
func TestServeSyncOfferRejectsBadKey(t *testing.T) {
	s := newTestService(t, Config{ID: "src", PersistPath: t.TempDir()})
	_, err := s.ServeSyncOffer(SyncOfferRequest{Have: []SyncEntry{{Key: []byte("short"), Stamp: 1}}})
	if err == nil {
		t.Fatal("malformed key accepted")
	}
}

// Ingest after Close must refuse cleanly (the drain contract), not wedge
// on a stopped flusher.
func TestIngestAfterCloseRefused(t *testing.T) {
	s := newTestService(t, Config{ID: "src", PersistPath: t.TempDir()})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(nil); !errors.Is(err, ErrServiceClosed) {
		t.Errorf("Ingest after Close: err = %v, want ErrServiceClosed", err)
	}
}

// recorded serves s behind a handler that notes every request it sees.
func recorded(s *Service, seen *[]transport.Message) transport.Client {
	return transport.DialInProc(transport.HandlerFunc(func(ctx context.Context, req transport.Message) (transport.Message, error) {
		*seen = append(*seen, req)
		return s.Handle(ctx, req)
	}))
}

// A pull probes with fingerprints first: a converged pair stops there and
// reports in-sync, a diverged one offers only the buckets that differ, and
// either way it applies what a complete-manifest pull would have.
func TestPullProbesThenOffersOnlyDifferingBuckets(t *testing.T) {
	key := testKeyPair(t)
	src := newKeyedService(t, "src", key)
	dst := newKeyedService(t, "dst", testKeyPair(t), key.ID())
	ctx := context.Background()
	verifyDistinct(t, src, "base", 400)
	var seen []transport.Message
	peer := recorded(src, &seen)

	// Catch-up from empty: every bucket differs, the scoped offer is empty
	// and the delta is the whole log.
	res, err := dst.pullExchange(ctx, peer, gossip.Request{})
	if err != nil || res.Received != 400 || res.InSync || res.Signer != key.ID() {
		t.Fatalf("catch-up pull: %+v, %v", res, err)
	}

	// Converged: one probe, no offer, nothing ingested, in-sync.
	seen = nil
	res, err = dst.pullExchange(ctx, peer, gossip.Request{})
	if err != nil || !res.InSync || res.Received != 0 || res.Signer != key.ID() {
		t.Fatalf("converged pull: %+v, %v", res, err)
	}
	if len(seen) != 1 || seen[0].Type != MsgGossip {
		t.Fatalf("converged pull sent %d messages, first %q; want the probe alone", len(seen), seen[0].Type)
	}

	// Three new records at src: the offer that follows the probe lists a
	// sliver of dst's 400 keys, under a scope, and the delta is those three.
	verifyDistinct(t, src, "news", 3)
	seen = nil
	res, err = dst.pullExchange(ctx, peer, gossip.Request{})
	if err != nil || res.Received != 3 || res.InSync {
		t.Fatalf("incremental pull: %+v, %v", res, err)
	}
	if len(seen) != 2 || seen[1].Type != MsgSyncOffer {
		t.Fatalf("incremental pull sent %d messages", len(seen))
	}
	var offer SyncOfferRequest
	if err := seen[1].Decode(&offer); err != nil {
		t.Fatal(err)
	}
	if len(offer.Scope) == 0 || len(offer.Have) == 0 || len(offer.Have) > 40 {
		t.Fatalf("scoped offer lists %d of 400 keys under a %d-byte scope", len(offer.Have), len(offer.Scope))
	}
	if !reflect.DeepEqual(manifestOfService(t, src), manifestOfService(t, dst)) {
		t.Fatal("scoped pulls did not converge the pair")
	}

	// A backstop round skips the probe and offers everything.
	seen = nil
	res, err = dst.pullExchange(ctx, peer, gossip.Request{Full: true})
	if err != nil || res.InSync || res.Received != 0 {
		t.Fatalf("backstop pull: %+v, %v", res, err)
	}
	var complete SyncOfferRequest
	if err := seen[0].Decode(&complete); err != nil || len(seen) != 1 || seen[0].Type != MsgSyncOffer ||
		len(complete.Scope) != 0 || len(complete.Have) != 403 {
		t.Fatalf("backstop pull: %d messages, %d entries, scope %x, %v", len(seen), len(complete.Have), complete.Scope, err)
	}
}

// The delta's signature binds the scope it was served for: a delta signed
// for a few buckets does not verify as the answer to the same manifest
// entries under another scope, or under none.
func TestScopedDeltaSignatureBindsScope(t *testing.T) {
	key := testKeyPair(t)
	src := newKeyedService(t, "src", key)
	dst := newKeyedService(t, "dst", testKeyPair(t), key.ID())
	verifyDistinct(t, src, "s", 20)
	scope := store.Scope{0x0f}
	offer, err := dst.syncOffer(scope)
	if err != nil {
		t.Fatal(err)
	}
	delta := serveOffer(t, src, offer)
	if delta.Count == 0 || delta.Count == 20 {
		t.Fatalf("test premise: half the key space served %d of 20 records", delta.Count)
	}
	for _, other := range []store.Scope{nil, {0xff}, {0x0f, 0x00}} {
		replay := offer
		replay.Scope = other
		if _, err := dst.IngestDelta(replay, delta); !errors.Is(err, identity.ErrBadSignature) {
			t.Fatalf("delta for scope %x accepted under scope %x: %v", scope, other, err)
		}
	}
	if n, err := dst.IngestDelta(offer, delta); err != nil || n != delta.Count {
		t.Fatalf("delta under its own scope: applied %d of %d, %v", n, delta.Count, err)
	}
}

// Malformed scoped offers and fingerprint sets are refused with an error:
// a bitmap that is no legal width, a manifest key outside the offer's own
// scope, a fingerprint count that is no legal width.
func TestHandlerRejectsMalformedScopedOffers(t *testing.T) {
	s := newTestService(t, Config{ID: "src", PersistPath: t.TempDir()})
	s.register(&countingProc{format: "counting/v1", accept: true})
	verifyDistinct(t, s, "k", 10)
	outside := SyncEntry{Key: bytes.Repeat([]byte{0xff}, 32), Stamp: 1} // last bucket; scope 0x01 is the first
	for name, msg := range map[string]struct {
		typ     string
		payload any
	}{
		"3-byte bitmap":       {MsgSyncOffer, SyncOfferRequest{Scope: []byte{1, 2, 3}}},
		"256-byte bitmap":     {MsgGossipPull, SyncOfferRequest{Scope: make([]byte, 256)}},
		"key outside scope":   {MsgSyncOffer, SyncOfferRequest{Scope: []byte{0x01}, Have: []SyncEntry{outside}}},
		"pull outside scope":  {MsgGossipPull, SyncOfferRequest{Scope: []byte{0x01}, Have: []SyncEntry{outside}}},
		"12 fingerprints":     {MsgGossip, GossipRequest{Buckets: make([]byte, 8*12)}},
		"4 fingerprints":      {MsgGossip, GossipRequest{Buckets: make([]byte, 8*4)}},
		"9 fingerprint bytes": {MsgGossip, GossipRequest{Buckets: make([]byte, 9)}},
		"no fingerprints":     {MsgGossip, GossipRequest{}},
	} {
		req, err := transport.NewMessage(msg.typ, msg.payload)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := s.Handle(context.Background(), req); err == nil {
			t.Errorf("%s: accepted, answered %q", name, resp.Type)
		}
	}
	// The well-formed neighbours of each case are served.
	inside := SyncEntry{Key: make([]byte, 32), Stamp: 1}
	if _, err := s.ServeSyncOffer(SyncOfferRequest{Scope: []byte{0x01}, Have: []SyncEntry{inside}}); err != nil {
		t.Fatalf("well-formed scoped offer refused: %v", err)
	}
	if _, err := s.serveGossip(GossipRequest{Buckets: make([]byte, 8*16)}); err != nil {
		t.Fatalf("well-formed fingerprint set refused: %v", err)
	}
}

// bench/README finding 7 over the wire: member C co-signed a verdict and
// holds it bare at a stamp ahead of A's whole log; the certificate A then
// archives must still reach C (the offer's cert bit is what tells A's
// delta that C's copy is bare), be served by C, and then stay put — two
// further rounds in both directions move nothing.
func TestCertificateReplicatesToMemberWhoseClockIsAhead(t *testing.T) {
	a := newTestService(t, Config{ID: "a", PersistPath: t.TempDir()})
	c := newTestService(t, Config{ID: "c", PersistPath: t.TempDir()})
	for _, s := range []*Service{a, c} {
		s.register(&countingProc{format: "counting/v1", accept: true})
	}
	ctx := context.Background()
	ann := announcementFor("inv", `{"certified":"shared"}`)
	verifyDistinct(t, c, "c-runs-ahead", 20)
	for _, s := range []*Service{c, a} {
		if _, err := s.VerifyAnnouncement(ctx, ann); err != nil {
			t.Fatal(err)
		}
	}
	key := identity.DigestBytes([]byte(ann.Format), ann.Game, ann.Advice, ann.Proof)
	cert := &core.Certificate{
		Key: key.String(), Verdict: core.Verdict{Accepted: true, Format: ann.Format},
		Panel: []byte{0x07}, Sigs: [][]byte{[]byte("a"), []byte("b"), []byte("c")},
	}
	if err := a.StoreCertificate(cert); err != nil { // no panel keyset: stored unverified
		t.Fatal(err)
	}
	if ma, mc := manifestOfService(t, a)[key], manifestOfService(t, c)[key]; !ma.Certified || mc.Certified || mc.Stamp <= ma.Stamp {
		t.Fatalf("test premise: a holds %+v, c holds %+v", ma, mc)
	}

	if n, _, err := c.PullFrom(ctx, transport.DialInProc(a)); err != nil || n != 1 {
		t.Fatalf("c pulled %d records from a (%v), want the certified copy", n, err)
	}
	if got, found, err := c.Certificate(key); err != nil || !found || !reflect.DeepEqual(got, cert) {
		t.Fatalf("c serves certificate %+v (found=%v, %v)", got, found, err)
	}
	if n, _, err := a.PullFrom(ctx, transport.DialInProc(c)); err != nil || n != 20 {
		t.Fatalf("a pulled %d records from c (%v), want its 20 others", n, err)
	}
	for round := 0; round < 2; round++ {
		for _, pair := range [][2]*Service{{a, c}, {c, a}} {
			res, err := pair[0].pullExchange(ctx, transport.DialInProc(pair[1]), gossip.Request{})
			if err != nil || res.Received != 0 || !res.InSync {
				t.Fatalf("round %d, %s<-%s: %+v, %v", round, pair[0].id, pair[1].id, res, err)
			}
		}
	}
	if _, found, _ := a.Certificate(key); !found {
		t.Fatal("a lost its certificate")
	}
}

// certifiedOn verifies ann on s and then stores a certificate for it the
// way cert-put does — with no request in hand — and returns the key.
func certifiedOn(t *testing.T, s *Service, ann core.Announcement) identity.Hash {
	t.Helper()
	if _, err := s.VerifyAnnouncement(context.Background(), ann); err != nil {
		t.Fatal(err)
	}
	key := identity.DigestBytes([]byte(ann.Format), ann.Game, ann.Advice, ann.Proof)
	if err := s.StoreCertificate(&core.Certificate{
		Key: key.String(), Verdict: core.Verdict{Accepted: true, Format: ann.Format},
		Panel: []byte{0x07}, Sigs: [][]byte{[]byte("a"), []byte("b"), []byte("c")},
	}); err != nil { // no panel keyset: stored unverified
		t.Fatal(err)
	}
	return key
}

// A record that gains a certificate keeps its request column (the store's
// merge carries it into the certified frame), so a peer that ingests the
// certified record can still re-run it: at AuditRate 1 it is audited.
func TestCertifiedRecordIsAuditedOnAPeer(t *testing.T) {
	keyA, keyB := testKeyPair(t), testKeyPair(t)
	a := newKeyedService(t, "a", keyA)
	b := newTestService(t, Config{ID: "b", PersistPath: t.TempDir(), Key: keyB, PeerKeys: []identity.PartyID{keyA.ID()}, AuditRate: 1})
	b.register(&countingProc{format: "counting/v1", accept: true})
	key := certifiedOn(t, a, announcementFor("inv", `{"certified":"audited"}`))

	if n, err := signedPull(t, b, a); err != nil || n != 1 {
		t.Fatalf("b pulled %d records from a (%v), want the certified one", n, err)
	}
	if _, found, err := b.Certificate(key); err != nil || !found {
		t.Fatalf("b does not serve the certificate it pulled (found=%v, %v)", found, err)
	}
	waitFor(t, 2*time.Second, "the certified record to be audited", func() bool { return b.Stats().Audits >= 1 })
	if got := b.Stats().AuditRefutations; got != 0 {
		t.Fatalf("the honest certified record was refuted %d times", got)
	}
}

// A cache miss on an already-certified key re-verifies and re-appends the
// bare verdict. The log must keep the certificate: on an authority with no
// peers nothing could bring it back.
func TestCacheMissKeepsLoggedCertificate(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, Config{ID: "a", PersistPath: dir, CacheSize: 2, CacheShards: 1})
	proc := &countingProc{format: "counting/v1", accept: true}
	s.register(proc)
	ann := announcementFor("inv", `{"certified":"evicted"}`)
	key := certifiedOn(t, s, ann)
	verifyDistinct(t, s, "evicting", 4)
	ran := proc.calls.Load()
	if _, err := s.VerifyAnnouncement(context.Background(), ann); err != nil {
		t.Fatal(err)
	}
	if proc.calls.Load() != ran+1 {
		t.Fatal("test premise: the certified key was still cached")
	}
	if got := manifestOfService(t, s)[key]; !got.Certified {
		t.Fatalf("after the miss the log holds %+v: the certificate is gone", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, live, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	blob, _, err := st.Records([]identity.Hash{key})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := store.DecodeRecords(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Key == key && len(r.Cert) != 0 && len(r.Request) != 0 && slices.ContainsFunc(live, func(l store.Live) bool {
			return l.Key == key && bytes.Equal(l.Cert, r.Cert)
		}) {
			return
		}
	}
	t.Fatalf("reopened log: %+v; want the key's record with its certificate and its request", recs)
}

// The manifest line carries the verdict's polarity — only when rejected,
// so the common line costs nothing on the wire — and the offer's digest
// covers it: a delta signed for one polarity answers no other offer.
func TestSyncEntryCarriesPolarity(t *testing.T) {
	s := newTestService(t, Config{ID: "a", PersistPath: t.TempDir()})
	s.register(&countingProc{format: "counting/v1", accept: true})
	s.register(&countingProc{format: "refusing/v1", accept: false})
	ctx := context.Background()
	rejected := announcementFor("inv", `{"polarity":"no"}`)
	rejected.Format = "refusing/v1"
	for _, ann := range []core.Announcement{announcementFor("inv", `{"polarity":"yes"}`), rejected} {
		if _, err := s.VerifyAnnouncement(ctx, ann); err != nil {
			t.Fatal(err)
		}
	}
	offer, err := s.SyncOffer()
	if err != nil || len(offer.Have) != 2 {
		t.Fatalf("offer = %+v, %v", offer, err)
	}
	rejKey := identity.DigestBytes([]byte(rejected.Format), rejected.Game, rejected.Advice, rejected.Proof)
	for i, e := range offer.Have {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if isRej := identity.Hash(e.Key) == rejKey; e.Rej != isRej || bytes.Contains(line, []byte(`"rej"`)) != isRej {
			t.Fatalf("manifest line %s for a verdict with rejected=%v", line, isRej)
		}
		before := offerDigest(&offer)
		offer.Have[i].Rej = !e.Rej
		if offerDigest(&offer) == before {
			t.Fatalf("flipping line %d's polarity leaves the offer digest unchanged", i)
		}
		offer.Have[i].Rej = e.Rej
	}
}
