package service

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"rationality/internal/gossip"
	"rationality/internal/identity"
	"rationality/internal/store"
	"rationality/internal/transport"
)

// Anti-entropy endpoints: a quorum of verification authorities converges
// on shared verdict history by pulling, from each peer, the durable-log
// records it is missing. The service side is deliberately pull-based —
// the requester offers its manifest, the responder computes the delta —
// so a verifier that was down for a day catches up with one exchange per
// peer and no peer ever pushes unrequested state. An exchange first
// trades per-bucket fingerprints of the two logs (the "gossip" opener), so
// the manifest that follows lists only the buckets that disagree and a
// converged pair trades nothing else at all.

// ErrNoStore is returned by the sync API on a service running without a
// durable verdict store: anti-entropy replicates the log, so there must
// be one (set Config.PersistPath).
var ErrNoStore = errors.New("service: anti-entropy requires a durable verdict store (Config.PersistPath)")

// ErrPeerQuarantined rejects a delta signed by a peer the trust policy
// has quarantined: its signature may be perfectly valid, but its word is
// not currently worth ingesting. The delta is counted (the peer's sync
// activity stays observable) and refused.
var ErrPeerQuarantined = errors.New("service: sync-delta signer is quarantined by this authority's trust policy")

// SyncOffer snapshots this service's verdict log as the complete
// sync-offer payload to send a peer: one entry per live record, newest
// stamp each, no scope.
func (s *Service) SyncOffer() (SyncOfferRequest, error) { return s.syncOffer(nil) }

// syncOffer builds the offer over one scope of the key space (nil: all of
// it — the complete manifest): the entries for the live records in the
// scope's buckets, and the scope itself, which the responder's delta and
// signature are then bound to.
func (s *Service) syncOffer(scope store.Scope) (SyncOfferRequest, error) {
	if s.store == nil {
		return SyncOfferRequest{}, ErrNoStore
	}
	manifest, err := s.store.Manifest(scope)
	if err != nil {
		return SyncOfferRequest{}, err
	}
	offer := SyncOfferRequest{VerifierID: s.id, Have: make([]SyncEntry, 0, len(manifest)), Scope: scope}
	for key, info := range manifest {
		offer.Have = append(offer.Have, SyncEntry{
			Key:   append([]byte(nil), key[:]...),
			Stamp: info.Stamp,
			Sum:   info.Sum,
			Cert:  info.Certified,
			Rej:   info.Rejected,
		})
	}
	return offer, nil
}

// ServeSyncOffer answers a peer's sync-offer with the framed records this
// service's log holds, inside the offer's scope, that the peer's merge
// would take over what its manifest lists (store.Delta). An offer with no
// scope is a complete manifest and is answered over the whole log. A keyed
// service signs the delta — over the canonical digest of the offer it
// answers (scope included), the framed records, and its own party ID — so
// the requester can verify both who served the transfer and that it was
// served for *this* offer (a captured delta replays against no other
// exchange). The handler wires it to the "sync-offer" message.
func (s *Service) ServeSyncOffer(offer SyncOfferRequest) (SyncDeltaResponse, error) {
	if s.store == nil {
		return SyncDeltaResponse{}, ErrNoStore
	}
	scope := offer.scope()
	if err := scope.Check(); err != nil {
		return SyncDeltaResponse{}, err
	}
	have := make(map[identity.Hash]store.RecordInfo, len(offer.Have))
	for _, e := range offer.Have {
		if len(e.Key) != len(identity.Hash{}) {
			return SyncDeltaResponse{}, fmt.Errorf("service: malformed sync-offer key of %d bytes", len(e.Key))
		}
		key := identity.Hash(e.Key)
		if !scope.Contains(key) {
			return SyncDeltaResponse{}, fmt.Errorf("service: sync-offer lists key %s outside its own scope", key)
		}
		have[key] = store.RecordInfo{Stamp: e.Stamp, Sum: e.Sum, Certified: e.Cert, Rejected: e.Rej}
	}
	framed, count, err := s.store.Delta(have, scope)
	if err != nil {
		return SyncDeltaResponse{}, err
	}
	s.metrics.deltasServed.Add(1)
	resp := SyncDeltaResponse{VerifierID: s.id, Count: count, Records: framed}
	if s.fed != nil && s.fed.key != nil {
		resp.Signer = s.fed.key.ID()
		resp.Signature = s.fed.key.Sign(identity.SyncDeltaDigest(offerDigest(&offer), framed, resp.Signer))
	}
	return resp, nil
}

// NoteSyncRound records one completed replication pass in
// Stats().SyncRounds. The Gossiper calls it after every round; a caller
// that drives PullFrom on its own cadence calls it where its pass ends,
// so the loop's liveness is observable next to the per-delta counters
// the service records itself.
func (s *Service) NoteSyncRound() { s.metrics.syncRounds.Add(1) }

// Provenance summarizes the durable log by vouching authority: how many
// live records each origin party ID accounts for. Locally verified
// verdicts appear under this service's own key (or the empty ID when
// unkeyed); records pulled from federation peers appear under the key
// that signed their transfer. It answers the operator question "whose
// word am I serving?" without a disk scan.
func (s *Service) Provenance() (map[identity.PartyID]uint64, error) {
	if s.store == nil {
		return nil, ErrNoStore
	}
	return s.store.Provenance()
}

// ProvenanceReport joins Provenance with the trust policy's standing per
// peer: one entry per vouching party, sorted by ID, each carrying its
// live record count, reputation, quarantine state and refutation tally.
// Peers the trust policy tracks but the log holds no records from (e.g.
// a quarantined peer whose lies were all repaired) still appear — a
// provenance report that hid exactly the peers being refused would be
// useless for the question it exists to answer.
func (s *Service) ProvenanceReport() (ProvenanceResponse, error) {
	counts, err := s.Provenance()
	if err != nil {
		return ProvenanceResponse{}, err
	}
	byID := make(map[identity.PartyID]ProvenancePeer, len(counts))
	for id, n := range counts {
		byID[id] = ProvenancePeer{ID: id, Records: n}
	}
	if s.trust != nil {
		for _, ts := range s.trust.Snapshot() {
			p := byID[identity.PartyID(ts.Peer)]
			p.ID = identity.PartyID(ts.Peer)
			p.Reputation = ts.Reputation
			p.State = string(ts.State)
			p.Refutations = ts.Refutations
			byID[p.ID] = p
		}
	}
	resp := ProvenanceResponse{VerifierID: s.id, Signer: s.origin, Peers: make([]ProvenancePeer, 0, len(byID))}
	for _, p := range byID {
		resp.Peers = append(resp.Peers, p)
	}
	sort.Slice(resp.Peers, func(i, j int) bool { return resp.Peers[i].ID < resp.Peers[j].ID })
	return resp, nil
}

// IngestDelta is the federation gate in front of Ingest: it verifies a
// pulled sync-delta's provenance against the peer allowlist, decodes the
// record frames, stamps the signer's identity onto them as origin, and
// only then lets the store see them. Rejections — unsigned deltas when an
// allowlist is configured, signers outside it, signatures that do not
// verify (forgery, replay against a different offer, a rotated key), and
// corrupt frames — are counted per cause and per claimed signer in
// Stats().Federation, and nothing is ingested. offer must be the exact
// offer this delta answered: the signature is bound to it.
//
// Without an allowlist a signature is still checked when present (a
// claimed identity must be provable), but unsigned deltas pass — the
// single-operator trust model anti-entropy shipped with.
func (s *Service) IngestDelta(offer SyncOfferRequest, delta SyncDeltaResponse) (int, error) {
	if s.store == nil {
		return 0, ErrNoStore
	}
	if s.fed != nil {
		if err := s.fed.admit(&offer, &delta); err != nil {
			return 0, err
		}
	} else if delta.Signer != "" || len(delta.Signature) != 0 {
		// No federation config, but the peer claims an identity: a claim
		// that cannot be proven must not become on-disk provenance, so
		// the signature is verified here too — the only difference an
		// allowlist makes is *which* provable identities are accepted.
		digest := identity.SyncDeltaDigest(offerDigest(&offer), delta.Records, delta.Signer)
		if err := identity.Verify(delta.Signer, digest, delta.Signature); err != nil {
			return 0, fmt.Errorf("service: sync-delta from signer %s (peer %q): %w", delta.Signer, delta.VerifierID, err)
		}
	}
	if s.trust != nil && delta.Signer != "" && !s.trust.Allowed(string(delta.Signer)) {
		// The signature checked out — the peer is who it claims — but its
		// standing is quarantined: count the delta (its sync activity stays
		// visible in Stats) and refuse every record in it.
		s.metrics.rejectedQuarantined.Add(1)
		if s.fed != nil {
			s.fed.countReject(delta.Signer, nil)
		}
		return 0, fmt.Errorf("%w: signer %s (peer %q)", ErrPeerQuarantined, delta.Signer, delta.VerifierID)
	}
	recs, err := store.DecodeRecords(delta.Records)
	if err != nil {
		// The transfer-level signature already verified (when present), so
		// a bad frame here means the *responder* served bytes it should
		// not have signed — still a rejection worth counting against it.
		if s.fed != nil {
			s.fed.countReject(delta.Signer, &s.fed.stats.RejectedCorrupt)
		}
		return 0, err
	}
	// The signing peer vouches for this transfer: its (verified) identity
	// is the provenance every applied record carries to disk, whatever
	// custody chain the peer's own copy claimed. An unsigned transfer
	// proves nothing, so whatever origins its frames claim are cleared
	// rather than persisted — unattributed beats fabricated.
	for i := range recs {
		recs[i].Origin = delta.Signer
	}
	n, err := s.Ingest(recs)
	if s.fed != nil && err == nil {
		s.fed.countAccept(delta.Signer, n)
	}
	return n, err
}

// admit enforces the allowlist and signature rules on one pulled delta.
func (f *federation) admit(offer *SyncOfferRequest, delta *SyncDeltaResponse) error {
	unsigned := delta.Signer == "" && len(delta.Signature) == 0
	if unsigned {
		if len(f.allow) == 0 {
			return nil // no allowlist: unsigned intra-operator sync is fine
		}
		f.countReject("", &f.stats.RejectedUnsigned)
		return fmt.Errorf("%w (peer %q)", ErrUnsignedDelta, delta.VerifierID)
	}
	// A refusal is charged to a per-peer row only when the signer is
	// allowlisted: the signer string is whatever the sender wrote, and a
	// row per forged string would grow the table without bound.
	row := delta.Signer
	if !f.allow[row] {
		row = ""
	}
	if len(f.allow) > 0 && row == "" {
		f.countReject("", &f.stats.RejectedUnknown)
		return fmt.Errorf("%w: signer %s (peer %q)", ErrUnknownSigner, delta.Signer, delta.VerifierID)
	}
	digest := identity.SyncDeltaDigest(offerDigest(offer), delta.Records, delta.Signer)
	if err := identity.Verify(delta.Signer, digest, delta.Signature); err != nil {
		f.countReject(row, &f.stats.RejectedBadSig)
		return fmt.Errorf("service: sync-delta from signer %s (peer %q): %w", delta.Signer, delta.VerifierID, err)
	}
	return nil
}

// Ingest merges records pulled from a peer into the durable log (the
// store's one merge rule, bounded by its retention — see store.Ingest) and installs every applied verdict into the sharded
// cache at *cold* recency: replicated history fills spare capacity and
// serves as hits, but a bulk delta can never evict the node's live
// working set. Ingested verdicts never touch the hit/miss counters —
// they are replication, not traffic — and are counted in Stats.Ingested
// instead. Returns how many records were applied; offers the merge kept
// the standing record over are skipped silently. A store write error is
// returned after the records that did apply are installed, so a partial
// merge is still served.
//
// Two accountability hooks ride the merge. Records the store *refutes* —
// their verdict polarity contradicts one this authority verified locally
// (see store.Refutation) — charge the peer named as their origin through
// the trust policy: the refusal is the evidence. And applied foreign
// records are sampled at Config.AuditRate for background re-verification.
func (s *Service) Ingest(recs []store.Record) (int, error) {
	if s.store == nil {
		return 0, ErrNoStore
	}
	if err := s.acquire(); err != nil {
		return 0, err
	}
	defer s.release()
	for i := range recs {
		// Carried quorum certificates face the panel keyset before the
		// store sees them: a certificate that fails offline verification
		// is stripped (and counted) while its verdict still merges — bad
		// co-signatures must not block replication, and unverifiable
		// certification must not be re-served as the panel's word.
		s.admitRecordCert(&recs[i])
	}
	applied, refuted, err := s.store.Ingest(recs)
	for i := range applied {
		s.cache.PutCertified(applied[i].Key, applied[i].Verdict, applied[i].Cert, true)
		if len(applied[i].Cert) > 0 {
			s.metrics.certsStored.Add(1)
		}
		s.maybeAudit(&applied[i])
		// An applied foreign record is news to this authority's own gossip
		// partners too: re-rumoring it is what makes spread epidemic
		// (peers that already hold the copy apply nothing and the rumor
		// dies out on its TTL).
		s.noteRumor(applied[i].Key)
	}
	s.metrics.ingested.Add(uint64(len(applied)))
	for i := range refuted {
		r := &refuted[i]
		s.metrics.ingestRefutations.Add(1)
		if s.trust != nil && r.Record.Origin != "" {
			s.trust.Charge(string(r.Record.Origin), fmt.Sprintf(
				"ingest: record %x: peer %s vouched accepted=%v against locally verified accepted=%v",
				r.Record.Key[:4], r.Record.Origin, r.Record.Verdict.Accepted, r.LocalAccepted))
		}
	}
	return len(applied), err
}

// PullFrom performs one anti-entropy exchange against a single peer: it
// probes the peer with this log's bucket fingerprints and, unless every
// bucket agrees (zero records, nothing further sent), sends the manifest
// of the buckets that differ as a sync-offer, receives the signed delta,
// and hands it to the federation gate (IngestDelta).
// It returns how many records were applied and the delta's signer — the
// identity the trust policy tracks, which is how the replication loop
// learns whom an address speaks for (and stops dialing it once that
// identity is quarantined). The signer is reported only once the gate has
// verified its signature: on success, and on a quarantine refusal
// (ErrPeerQuarantined); any other failure reports none.
func (s *Service) PullFrom(ctx context.Context, peer transport.Client) (int, identity.PartyID, error) {
	res, err := s.pullExchange(ctx, peer, gossip.Request{})
	return res.Received, res.Signer, err
}

// pullExchange is PullFrom as the replication loop's ExchangeFunc, used
// when every round reaches every peer (the partner's own loop pulls the
// other direction): the same exchange, reported with the payload bytes it
// moved. Rumors do not apply; a backstop round (req.Full) skips the probe
// and offers the complete manifest.
func (s *Service) pullExchange(ctx context.Context, peer transport.Client, req gossip.Request) (gossip.Result, error) {
	var res gossip.Result
	var scope store.Scope
	if !req.Full {
		remote, err := s.probe(ctx, peer, nil, &res)
		if err != nil {
			return res, err
		}
		if scope = remote.Differ; len(scope) == 0 {
			res.Signer, res.InSync = remote.Signer, true
			return res, nil
		}
	}
	offer, err := s.syncOffer(scope)
	if err != nil {
		return res, err
	}
	msg, err := transport.NewMessage(MsgSyncOffer, offer)
	if err != nil {
		return res, err
	}
	res.BytesSent += uint64(len(msg.Payload))
	resp, err := peer.Call(ctx, msg)
	if err != nil {
		return res, fmt.Errorf("service: sync-offer exchange: %w", err)
	}
	if resp.Type != MsgSyncDelta {
		return res, fmt.Errorf("service: peer answered sync-offer with %q, want %q", resp.Type, MsgSyncDelta)
	}
	var delta SyncDeltaResponse
	if err := resp.Decode(&delta); err != nil {
		return res, err
	}
	res.BytesReceived += uint64(len(resp.Payload))
	res.Received, err = s.IngestDelta(offer, delta)
	if err == nil || errors.Is(err, ErrPeerQuarantined) {
		// Only now is the identity proven: the gate checks the signature
		// before it applies anything and before the quarantine refusal. A
		// delta refused for any other reason names nobody.
		res.Signer = delta.Signer
	}
	return res, err
}
