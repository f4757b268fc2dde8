package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"

	"rationality/internal/identity"
)

// Federation: the trust machinery that lets anti-entropy cross an
// operator boundary. A keyed service signs every sync-delta it serves
// (over the canonical digest of the offer it answers, the framed records,
// and its own party ID — identity.SyncDeltaDigest), and a service with a
// peer allowlist verifies every delta it pulls before a single byte
// reaches the store: unsigned deltas, unknown signers and bad signatures
// are rejected and counted, never ingested. Within one operator's fleet
// both knobs can stay off and anti-entropy behaves exactly as before.

// Federation rejection errors. They surface verbatim in the verifier's
// anti-entropy log lines, so the README failure-mode table quotes them.
var (
	// ErrUnsignedDelta rejects a delta with no signature from a service
	// that requires federation provenance (Config.PeerKeys set).
	ErrUnsignedDelta = errors.New("service: unsigned sync-delta refused: this authority only federates with allowlisted peers")
	// ErrUnknownSigner rejects a delta signed by a key outside the
	// allowlist.
	ErrUnknownSigner = errors.New("service: sync-delta signer is not on this authority's peer allowlist")
)

// PeerSyncStats counts one federation peer's anti-entropy outcomes, keyed
// by the peer's signing identity in FederationStats.Peers.
type PeerSyncStats struct {
	// Deltas counts this peer's deltas that passed verification and were
	// handed to the store; Records the records they applied (stale offers
	// that lost newest-stamp-wins are not counted).
	Deltas  uint64 `json:"deltas"`
	Records uint64 `json:"records"`
	// Rejected counts this peer's deltas refused before ingest — bad
	// signature, unlisted key, corrupt record frames, or a quarantined
	// standing.
	Rejected uint64 `json:"rejected"`
	// Refutations counts proven lies charged to this peer (contradictions
	// refused at ingest plus audit mismatches); Reputation and State are
	// the trust policy's live view of the peer. All three are merged in
	// from the trust policy by Stats and are zero/empty when the service
	// runs without one.
	Refutations uint64  `json:"refutations,omitempty"`
	Reputation  float64 `json:"reputation,omitempty"`
	State       string  `json:"state,omitempty"`
}

// FederationStats is the trust-boundary half of a service's Stats: who
// this authority signs as, whom it accepts deltas from, and every
// rejection bucket an operator needs to tell a key mismatch from an
// attack from a stale config.
type FederationStats struct {
	// Signer is this service's own signing identity; empty when no key is
	// configured (deltas served unsigned).
	Signer identity.PartyID `json:"signer,omitempty"`
	// TrustedPeers is the allowlist size; zero means every peer is
	// accepted (intra-operator mode).
	TrustedPeers int `json:"trustedPeers"`
	// RejectedUnsigned / RejectedUnknown / RejectedBadSig / RejectedCorrupt
	// partition refused deltas by cause: no signature at all, a signer
	// outside the allowlist, a signature that does not verify (forgery,
	// replay against a different offer, or a rotated key the peer list
	// missed), and record frames that fail their checksums.
	RejectedUnsigned uint64 `json:"rejectedUnsigned"`
	RejectedUnknown  uint64 `json:"rejectedUnknown"`
	RejectedBadSig   uint64 `json:"rejectedBadSig"`
	RejectedCorrupt  uint64 `json:"rejectedCorrupt"`
	// RejectedQuarantined counts deltas whose signature verified but whose
	// signer the trust policy had quarantined; Quarantined is how many
	// peers are currently in that state. Both stay zero without a trust
	// policy (Config.Trust).
	RejectedQuarantined uint64 `json:"rejectedQuarantined,omitempty"`
	Quarantined         int    `json:"quarantined,omitempty"`
	// Peers breaks accepted and rejected deltas down by signer identity.
	Peers map[string]PeerSyncStats `json:"peers,omitempty"`
}

// federation holds the service's signing key, the peer allowlist, and the
// acceptance/rejection counters. Counter updates take a plain mutex: they
// happen at anti-entropy cadence (one per pulled delta), never on the
// verification hot path.
type federation struct {
	key   *identity.KeyPair
	allow map[identity.PartyID]bool

	mu sync.Mutex
	// stats holds the signer, the allowlist size, the four cause buckets
	// and the per-peer rows; Service.Stats adds the trust policy's view.
	stats FederationStats
}

// newFederation validates the federation config. A nil return means the
// service runs unfederated (no key, no allowlist) and Stats carries no
// federation section.
func newFederation(key *identity.KeyPair, peerKeys []identity.PartyID) (*federation, error) {
	if key == nil && len(peerKeys) == 0 {
		return nil, nil
	}
	f := &federation{key: key}
	if key != nil {
		f.stats.Signer = key.ID()
	}
	if len(peerKeys) > 0 {
		f.allow = make(map[identity.PartyID]bool, len(peerKeys))
		for _, pk := range peerKeys {
			canonical, err := identity.ParsePartyID(string(pk))
			if err != nil {
				return nil, fmt.Errorf("service: peer allowlist: %w", err)
			}
			f.allow[canonical] = true
		}
	}
	f.stats.TrustedPeers = len(f.allow)
	return f, nil
}

// charge adds one delta's deltas, records and rejections to the signer's
// row. Unsigned deltas admitted without an allowlist carry no signer to
// attribute them to — they stay out of the per-peer table (a blank-ID row
// would read as corrupted stats) and remain visible as Stats.Ingested.
// Callers hold f.mu.
func (f *federation) charge(signer identity.PartyID, add PeerSyncStats) {
	if signer == "" {
		return
	}
	if f.stats.Peers == nil {
		f.stats.Peers = make(map[string]PeerSyncStats)
	}
	p := f.stats.Peers[string(signer)]
	p.Deltas += add.Deltas
	p.Records += add.Records
	p.Rejected += add.Rejected
	f.stats.Peers[string(signer)] = p
}

// countAccept records one verified delta and how many records it applied.
func (f *federation) countAccept(signer identity.PartyID, records int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.charge(signer, PeerSyncStats{Deltas: 1, Records: uint64(records)})
}

// countReject records one refused delta under the given cause bucket,
// attributing it to the claimed signer when one was named. A quarantine
// refusal passes a nil bucket: its bucket lives in the service metrics
// (the trust policy can run without a federation config).
func (f *federation) countReject(signer identity.PartyID, bucket *uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if bucket != nil {
		*bucket++
	}
	f.charge(signer, PeerSyncStats{Rejected: 1})
}

// snapshot assembles the FederationStats view.
func (f *federation) snapshot() *FederationStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Peers = maps.Clone(st.Peers)
	return &st
}

// offerDigest is the canonical content address of a sync-offer: the
// requester's ID, every manifest entry (key, stamp, sum, certified and
// rejected bits) in key order, and the scope bitmap the offer speaks for. The responder
// computes it over the offer as received and signs it into the delta; the
// requester computes it over the offer it sent and verifies — so a delta
// is cryptographically bound to exactly one offer over exactly one scope,
// and capturing a signed delta buys a forger nothing against any other
// exchange (a delta served for three buckets cannot be replayed as the
// answer to a complete manifest). Sorting makes the digest independent of
// manifest order, which a JSON round trip preserves anyway but nothing
// should have to rely on.
func offerDigest(offer *SyncOfferRequest) identity.Hash {
	entries := make([]SyncEntry, len(offer.Have))
	copy(entries, offer.Have)
	sort.Slice(entries, func(i, j int) bool {
		return string(entries[i].Key) < string(entries[j].Key)
	})
	buf := make([]byte, 0, len(entries)*(32+8+4+1))
	for _, e := range entries {
		buf = append(buf, e.Key...)
		buf = binary.BigEndian.AppendUint64(buf, e.Stamp)
		buf = binary.BigEndian.AppendUint32(buf, e.Sum)
		var bits byte
		if e.Cert {
			bits |= 1
		}
		if e.Rej {
			bits |= 2
		}
		buf = append(buf, bits)
	}
	return identity.DigestBytes([]byte("rationality/sync-offer/v4"), []byte(offer.VerifierID), buf, offer.Scope)
}
