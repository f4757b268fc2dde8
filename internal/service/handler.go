package service

import (
	"context"
	"encoding/json"
	"fmt"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/store"
	"rationality/internal/transport"
)

// Wire message types added by the service layer, alongside the classic
// core.MsgVerify / core.MsgFormats which the service also answers.
const (
	// MsgServiceStats: operator → service. Empty payload; reply "stats"
	// with StatsResponse.
	MsgServiceStats = "service-stats"
	// MsgSyncOffer: verifier → peer verifier. Payload SyncOfferRequest
	// (the requester's verdict-log manifest); reply "sync-delta" with
	// SyncDeltaResponse carrying the records the requester is missing.
	MsgSyncOffer = "sync-offer"
	// MsgSyncDelta is the reply type to a sync-offer.
	MsgSyncDelta = "sync-delta"
	// MsgProvenance: operator → service. Empty payload; reply
	// "provenance" with ProvenanceResponse — whose word this authority is
	// serving, one line per vouching peer with its trust standing.
	MsgProvenance = "provenance"
	// MsgCoSign: certificate coordinator → panel member. Payload
	// CoSignRequest (one verify request); the member verifies it through
	// its normal cached path and replies "cosigned" with CoSignResponse —
	// its verdict plus an Ed25519 signature over the canonical certificate
	// digest. Requires a signing key (Config.Key).
	MsgCoSign = "cosign"
	// MsgCoSigned is the reply type to a cosign.
	MsgCoSigned = "cosigned"
	// MsgCertPut: coordinator → authority. Payload CertPutRequest (an
	// assembled core.Certificate); the authority verifies it offline
	// against its panel keyset (when configured), persists it as a
	// certified record, and replies "cert-receipt" with CertPutResponse.
	MsgCertPut = "cert-put"
	// MsgCertReceipt is the reply type to a cert-put.
	MsgCertReceipt = "cert-receipt"
	// MsgCertGet: client → authority. Payload CertGetRequest (the hex
	// verdict key); reply "certificate" with CertGetResponse — the one
	// request an offline client needs before checking the certificate's
	// co-signatures against the known panel keyset locally.
	MsgCertGet = "cert-get"
	// MsgCertificate is the reply type to a cert-get.
	MsgCertificate = "certificate"
)

// CoSignRequest asks a panel member to verify one request and co-sign the
// resulting verdict's certificate digest.
type CoSignRequest struct {
	Request core.VerifyRequest `json:"request"`
}

// CoSignResponse is one panel member's co-signature: its verdict on the
// request, the content-addressed verdict key, and an Ed25519 signature by
// Signer over identity.CertificateDigest(key, canonical verdict JSON).
type CoSignResponse struct {
	VerifierID string `json:"verifierId"`
	// Signer is the member's signing identity — the party ID the
	// coordinator maps into the panel keyset bitmap.
	Signer identity.PartyID `json:"signer"`
	// Key is the hex content address of the verdict being certified.
	Key string `json:"key"`
	// Verdict is the member's own verdict on the request in canonical
	// JSON — core.Verdict.AppendJSON's bytes, the exact bytes Signature
	// covers.
	Verdict json.RawMessage `json:"verdict"`
	// Signature is the member's Ed25519 co-signature.
	Signature []byte `json:"signature"`
}

// CertPutRequest submits an assembled quorum certificate for persistence.
type CertPutRequest struct {
	Certificate core.Certificate `json:"certificate"`
}

// CertPutResponse acknowledges a stored certificate.
type CertPutResponse struct {
	VerifierID string `json:"verifierId"`
	Stored     bool   `json:"stored"`
}

// CertGetRequest asks for the stored certificate of one verdict key
// (canonical hex, as reported by CoSignResponse.Key).
type CertGetRequest struct {
	Key string `json:"key"`
}

// CertGetResponse returns the stored certificate, or Found=false when the
// key is uncertified or unknown.
type CertGetResponse struct {
	VerifierID  string            `json:"verifierId"`
	Found       bool              `json:"found"`
	Certificate *core.Certificate `json:"certificate,omitempty"`
}

// ProvenancePeer is one vouching party in a ProvenanceResponse: how many
// live records it accounts for, joined with the trust policy's view of
// it when one is attached.
type ProvenancePeer struct {
	// ID is the vouching party (empty for unattributed pre-federation
	// records).
	ID identity.PartyID `json:"id"`
	// Records is how many live verdict-log records carry this origin.
	Records uint64 `json:"records"`
	// Reputation, State and Refutations are the trust policy's standing
	// for the peer; State is empty when the service runs without a trust
	// policy (or for this authority's own records).
	Reputation  float64 `json:"reputation,omitempty"`
	State       string  `json:"state,omitempty"`
	Refutations uint64  `json:"refutations,omitempty"`
}

// ProvenanceResponse is the provenance report on the wire: the answering
// authority, its own signing identity, and every vouching party sorted
// by ID.
type ProvenanceResponse struct {
	VerifierID string           `json:"verifierId"`
	Signer     identity.PartyID `json:"signer,omitempty"`
	Peers      []ProvenancePeer `json:"peers"`
}

// SyncEntry is one manifest line in a sync-offer: a 32-byte verdict-log
// key (identity.Hash), the newest stamp the requester holds for it, the
// checksum of the verdict content at that stamp (so a peer whose copy
// differs only in stamp — compaction re-ranking — sends nothing),
// whether the requester's copy carries a quorum certificate (a certified
// copy is never replaced by a bare one, whatever the stamps), and the
// verdict's polarity — sent on rejected verdicts only, so the common line
// costs nothing — which lets the responder run the requester's merge
// exactly (store.Delta) instead of assuming the two copies agree.
type SyncEntry struct {
	Key   []byte `json:"key"`
	Stamp uint64 `json:"stamp"`
	Sum   uint32 `json:"sum"`
	Cert  bool   `json:"cert,omitempty"`
	Rej   bool   `json:"rej,omitempty"`
}

// SyncOfferRequest is a verifier's "what I have" half of an anti-entropy
// exchange: the peer answers with every live record, inside the offer's
// scope, whose key is absent from these entries or held there in a
// version the requester's merge would replace with the peer's copy.
type SyncOfferRequest struct {
	VerifierID string      `json:"verifierId"`
	Have       []SyncEntry `json:"have"`
	// Scope, when present, is the store.Scope bitmap of key-space buckets
	// this offer speaks for: Have lists the requester's records in those
	// buckets only, and the responder's delta (and signature) covers those
	// buckets only. Absent means the whole key space — a complete manifest.
	Scope []byte `json:"scope,omitempty"`
}

// scope is the offer's scope as the store takes it: absent or empty is
// the whole key space.
func (o *SyncOfferRequest) scope() store.Scope {
	if len(o.Scope) == 0 {
		return nil
	}
	return o.Scope
}

// SyncDeltaResponse carries the records the requester was missing, framed
// with the verdict log's own version-headed, length-prefixed CRC32C
// record layout (store.EncodeRecords), so the transfer is
// integrity-checked record by record before a single one is ingested.
// A keyed responder also signs the transfer: Signer is its Ed25519 party
// ID and Signature covers identity.SyncDeltaDigest(offer digest, Records,
// Signer) — authenticity and replay-binding on top of the CRC's
// integrity, which is what lets the requester gate ingestion on a peer
// allowlist (service.IngestDelta).
type SyncDeltaResponse struct {
	VerifierID string `json:"verifierId"`
	Count      int    `json:"count"`
	Records    []byte `json:"records,omitempty"`
	// Signer / Signature authenticate the transfer; both empty on an
	// unkeyed (single-operator) responder.
	Signer    identity.PartyID `json:"signer,omitempty"`
	Signature []byte           `json:"signature,omitempty"`
}

// BatchVerifyRequest is the verify-stream payload: the announcements to
// verify. Carrying full announcements (not bare verify requests) lets the service
// record every verdict against the responsible inventor.
type BatchVerifyRequest struct {
	Announcements []core.Announcement `json:"announcements"`
}

// StatsResponse is the service's operational snapshot on the wire.
type StatsResponse struct {
	VerifierID string `json:"verifierId"`
	Stats      Stats  `json:"stats"`
}

var _ transport.Handler = (*Service)(nil)

// replyBufferSize is the initial capacity of an append-encoded reply and
// of the scratch a verdict is encoded in: a catalog verdict with its
// details is 100–200 bytes, so the common reply is one allocation.
const replyBufferSize = 256

// decodeBatch decodes a verify-stream payload: by the
// single-pass scanner when the payload has the plain shape (the member
// name is BatchVerifyRequest's JSON tag), by json.Unmarshal otherwise —
// which is also what reports a malformed payload.
func decodeBatch(req transport.Message) ([]core.Announcement, error) {
	if anns, ok := core.ScanAnnouncements(req.Payload, "announcements"); ok {
		return anns, nil
	}
	var br BatchVerifyRequest
	if err := req.Decode(&br); err != nil {
		return nil, err
	}
	return br.Announcements, nil
}

// Handle implements transport.Handler: the classic verify/formats
// messages an agent sends any verifier, plus stats, replication and
// certificates; a batch is the verify-stream exchange (HandleStream). It
// is the only handler `authority verifier` serves — a lying verifier is
// this service over core.LyingProcedure.
func (s *Service) Handle(ctx context.Context, req transport.Message) (transport.Message, error) {
	switch req.Type {
	case core.MsgVerify:
		vr, ok := core.ScanVerifyRequest(req.Payload)
		if !ok {
			if err := req.Decode(&vr); err != nil {
				return transport.Message{}, err
			}
		}
		e, err := s.verify(ctx, "", vr.Format, vr.Game, vr.Advice, vr.Proof)
		if err != nil {
			return transport.Message{}, err
		}
		// The reply splices the cached verdict bytes: a hit neither
		// decodes nor re-encodes the verdict.
		payload := core.AppendVerifyResponse(make([]byte, 0, replyBufferSize), s.id, e.verdict)
		return transport.Message{Type: "verdict", Payload: payload}, nil
	case core.MsgFormats:
		return transport.NewMessage("formats", core.FormatsResponse{
			VerifierID: s.id,
			Formats:    s.Formats(),
		})
	case MsgServiceStats:
		return transport.NewMessage("stats", StatsResponse{VerifierID: s.id, Stats: s.Stats()})
	case MsgCoSign:
		vr, ok := core.ScanWrappedVerifyRequest(req.Payload, "request")
		if !ok {
			var cr CoSignRequest
			if err := req.Decode(&cr); err != nil {
				return transport.Message{}, err
			}
			vr = cr.Request
		}
		resp, err := s.CoSign(ctx, vr)
		if err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(MsgCoSigned, resp)
	case MsgCertPut:
		var pr CertPutRequest
		if err := req.Decode(&pr); err != nil {
			return transport.Message{}, err
		}
		if err := s.StoreCertificate(&pr.Certificate); err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(MsgCertReceipt, CertPutResponse{VerifierID: s.id, Stored: true})
	case MsgCertGet:
		var gr CertGetRequest
		if err := req.Decode(&gr); err != nil {
			return transport.Message{}, err
		}
		key, err := identity.ParseHash(gr.Key)
		if err != nil {
			return transport.Message{}, err
		}
		cert, found, err := s.Certificate(key)
		if err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(MsgCertificate, CertGetResponse{
			VerifierID: s.id, Found: found, Certificate: cert,
		})
	case MsgProvenance:
		report, err := s.ProvenanceReport()
		if err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage("provenance", report)
	case MsgSyncOffer:
		var offer SyncOfferRequest
		if err := req.Decode(&offer); err != nil {
			return transport.Message{}, err
		}
		delta, err := s.ServeSyncOffer(offer)
		if err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(MsgSyncDelta, delta)
	case MsgGossip:
		var gr GossipRequest
		if err := req.Decode(&gr); err != nil {
			return transport.Message{}, err
		}
		summary, err := s.serveGossip(gr)
		if err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(MsgGossipSummary, summary)
	case MsgGossipPull:
		var offer SyncOfferRequest
		if err := req.Decode(&offer); err != nil {
			return transport.Message{}, err
		}
		delta, err := s.ServeSyncOffer(offer)
		if err != nil {
			return transport.Message{}, err
		}
		// ServeSyncOffer vetted the scope; the manifest coming back covers
		// the same buckets, so the initiator's push is scoped like its pull.
		have, err := s.syncOffer(offer.scope())
		if err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(MsgGossipExchange, GossipExchangeResponse{
			VerifierID: s.id, Delta: delta, Have: have,
		})
	case MsgGossipPush:
		var pr GossipPushRequest
		if err := req.Decode(&pr); err != nil {
			return transport.Message{}, err
		}
		applied, err := s.IngestDelta(pr.Offer, pr.Delta)
		if err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(MsgGossipSummary, GossipSummaryResponse{
			VerifierID: s.id, Signer: s.origin, Applied: applied,
		})
	default:
		return transport.Message{}, fmt.Errorf("service: cannot handle %q", req.Type)
	}
}
