package service

import (
	"context"
	"errors"
	"fmt"

	"rationality/internal/gossip"
	"rationality/internal/identity"
	"rationality/internal/store"
	"rationality/internal/transport"
)

// Replication: one round loop (the gossip engine) paces every federated
// authority, and the service supplies the exchange it runs per partner.
// Both exchanges open the same way — a "gossip" message carrying this
// log's per-bucket fingerprints (store.Fingerprints), answered with the
// buckets on which the two logs disagree — and a converged pair stops
// there. What follows a disagreement is scoped to those buckets, and
// which exchange runs follows from the resolved configuration, not a
// switch:
//
//   - fanout ≥ peers: every pair already meets every round, so the
//     exchange is the plain pull (PullFrom: scoped "sync-offer" → signed
//     "sync-delta"); the partner's own loop pulls the other direction.
//   - fanout < peers: epidemic push-pull. The opener also carries any hot
//     "rumor" records, and on disagreement the pair trades scoped
//     manifests and signed deltas both directions. An update reaches
//     every authority in O(log n) rounds while a converged federation
//     idles on fingerprint probes.
//
// Every Nth round (the engine's anti-entropy backstop) reconciles over
// complete manifests instead, whatever the fingerprints say.
//
// A record that exists only on this authority's word — a stored quorum
// certificate, an audit repair — does not wait for a round: the engine
// pushes it at once (Engine.Push), as a "gossip-push" carrying a signed
// delta bound to the empty offer, to every permitted peer with an open
// client (past the fanout, to fanout of them). A lost push costs only
// latency: the rounds above still reconcile whatever it did not deliver.
//
// Every record that moves — pull delta, rumor, push delta — enters
// the receiving authority through IngestDelta, the signed federation
// gate: allowlist, Ed25519 transfer signatures, trust quarantine,
// refutation charging and audit sampling all apply unchanged. The loop
// decides who talks to whom and how often, never what is trusted.

// Gossip wire message types.
const (
	// MsgGossip opens an exchange, pull or push-pull: payload GossipRequest
	// (the initiator's bucket fingerprints plus optional rumor records);
	// reply "gossip-summary" with GossipSummaryResponse naming the buckets
	// that differ.
	MsgGossip = "gossip"
	// MsgGossipSummary answers MsgGossip and MsgGossipPush.
	MsgGossipSummary = "gossip-summary"
	// MsgGossipPull asks for reconciliation: payload SyncOfferRequest (the
	// initiator's manifest over the differing buckets); reply
	// "gossip-exchange" with the records the initiator is missing plus the
	// responder's own manifest over the same scope.
	MsgGossipPull = "gossip-pull"
	// MsgGossipExchange is the reply type to a gossip-pull.
	MsgGossipExchange = "gossip-exchange"
	// MsgGossipPush completes a push-pull exchange: payload
	// GossipPushRequest (the responder's echoed manifest and the signed
	// delta answering it); reply "gossip-summary". A push on write sends
	// it alone, with the empty offer.
	MsgGossipPush = "gossip-push"
)

// GossipRequest opens an exchange: the initiator's bucket fingerprints
// and any rumor records it is eagerly spreading.
type GossipRequest struct {
	VerifierID string `json:"verifierId"`
	// Buckets is the initiator's store.Fingerprints: eight bytes per
	// bucket, a power-of-two count the initiator chose from its live count.
	Buckets []byte `json:"buckets"`
	// Rumors, when non-nil, carries hot records as a signed delta bound to
	// the empty offer (rumor pushes are unsolicited: there is no real offer
	// to bind to, and ingestion stays safe because the receiving gate
	// verifies signer, allowlist and quarantine exactly as for any delta).
	Rumors *SyncDeltaResponse `json:"rumors,omitempty"`
}

// GossipSummaryResponse reports where a responder's log stands against
// the initiator's after it absorbed whatever the triggering message
// carried.
type GossipSummaryResponse struct {
	VerifierID string `json:"verifierId"`
	// Signer is the responder's claimed signing identity. It is advisory
	// (summaries are unsigned); any identity that matters — quarantine
	// skipping, provenance — is taken from verified delta signatures.
	Signer identity.PartyID `json:"signer,omitempty"`
	// Differ answers a gossip open: the store.Scope bitmap, one bit per
	// bucket the initiator sent, of the buckets whose fingerprints
	// disagree. Empty means the two logs hold the same content.
	Differ []byte `json:"differ,omitempty"`
	// Applied is how many carried records the responder's gate accepted.
	Applied int `json:"applied,omitempty"`
}

// GossipExchangeResponse answers a gossip-pull: the signed delta for the
// initiator's manifest, plus the responder's own manifest over the same
// scope so the initiator can push back what the responder is missing.
type GossipExchangeResponse struct {
	VerifierID string            `json:"verifierId"`
	Delta      SyncDeltaResponse `json:"delta"`
	Have       SyncOfferRequest  `json:"have"`
}

// GossipPushRequest is the push half: the responder's manifest (echoed
// back to it) and the initiator's signed delta answering it, or — for a
// push on write — the empty offer and a delta bound to it. The echo is
// safe to trust blind: the delta signature binds to the echoed offer's
// digest, and a fabricated offer can at worst make the receiver re-ingest
// records it already holds, which store.merge's table keeps as they stand.
type GossipPushRequest struct {
	Offer SyncOfferRequest  `json:"offer"`
	Delta SyncDeltaResponse `json:"delta"`
}

// Gossiper is one service's replication loop: the engine picks partners,
// paces rounds and backs off from failing peers; the service supplies the
// exchange (signed deltas through the federation gate). Create with
// Service.StartGossiper.
type Gossiper struct {
	engine *gossip.Engine
	// rumors reports that the exchange is push-pull, the only one that
	// carries rumor records; under the pull exchange nothing is marked hot.
	rumors bool
}

// StartGossiper attaches the replication loop to the service and
// registers it in Stats().Gossip. cfg configures the gossip engine; the
// service supplies Exchange (the pull or push-pull exchange) and
// Permitted (the trust policy's veto), so a caller that sets either is
// refused. With cfg.Interval set the round loop starts immediately (one
// catch-up round, then the jittered cadence); with Interval zero the
// Gossiper is manually stepped (Round), which is how harnesses drive
// lockstep convergence measurements. Every completed round counts into
// Stats().SyncRounds before cfg.OnRound, if set, observes it. Requires a
// durable store (replication is of the log) and at most one Gossiper per
// service.
func (s *Service) StartGossiper(cfg gossip.Config) (*Gossiper, error) {
	if s.store == nil {
		return nil, ErrNoStore
	}
	if cfg.Exchange != nil || cfg.Permitted != nil {
		return nil, errors.New("service: the gossiper supplies Exchange and Permitted itself")
	}
	if s.gossiper.Load() != nil {
		return nil, errors.New("service: gossiper already started")
	}
	g := &Gossiper{}
	cfg.Exchange = func(ctx context.Context, peer transport.Client, req gossip.Request) (gossip.Result, error) {
		switch {
		case req.Push:
			return s.pushExchange(ctx, peer, req.Rumors)
		case g.rumors:
			return s.gossipExchange(ctx, peer, req)
		}
		return s.pullExchange(ctx, peer, req)
	}
	cfg.Permitted = func(p identity.PartyID) bool {
		return s.trust == nil || s.trust.Allowed(string(p))
	}
	onRound := cfg.OnRound
	cfg.OnRound = func(exchanged bool) {
		s.NoteSyncRound()
		if onRound != nil {
			onRound(exchanged)
		}
	}
	e, err := gossip.New(cfg)
	if err != nil {
		return nil, err
	}
	// The engine resolved the fanout (default, cap at len(Peers)); the
	// exchange follows from it, before any round can run.
	fanout := e.Stats().Fanout
	g.engine, g.rumors = e, fanout < len(cfg.Peers)
	if cfg.Logf != nil {
		if g.rumors {
			cfg.Logf("replication: push-pull exchange (%d peers > fanout %d)", len(cfg.Peers), fanout)
		} else {
			cfg.Logf("replication: pull exchange (fanout %d covers %d peers)", fanout, len(cfg.Peers))
		}
	}
	if !s.gossiper.CompareAndSwap(nil, g) {
		e.Stop()
		return nil, errors.New("service: gossiper already started")
	}
	if cfg.Interval > 0 {
		if err := e.Start(); err != nil {
			s.gossiper.Store(nil)
			e.Stop()
			return nil, err
		}
	}
	return g, nil
}

// Round runs one manually stepped gossip round (Interval zero).
func (g *Gossiper) Round(ctx context.Context) error { return g.engine.Round(ctx) }

// Stop halts the loop and releases the peer clients. Idempotent.
func (g *Gossiper) Stop() { g.engine.Stop() }

// Stats snapshots the gossip counters.
func (g *Gossiper) Stats() gossip.Stats { return g.engine.Stats() }

// Seed reports the resolved selection seed (the logged value).
func (g *Gossiper) Seed() int64 { return g.engine.Seed() }

// noteRumor marks a key hot on an attached push-pull gossiper: the next
// rounds push its record eagerly instead of waiting for a fingerprint
// mismatch. Called for fresh local verdicts and applied foreign records
// (so an update keeps spreading epidemically), and through announce.
func (s *Service) noteRumor(key identity.Hash) {
	if g := s.gossiper.Load(); g != nil && g.rumors {
		g.engine.AddRumor(key)
	}
}

// announce spreads a record that exists only on this authority's word —
// a stored certificate, or an audit repair that must outrun the lie it
// replaces: pushed to the peers at once (Engine.Push), and rumored. Fresh
// verdicts and ingested records are only rumored: every panel member
// recomputes the former, and the latter arrived by replication.
func (s *Service) announce(key identity.Hash) {
	if g := s.gossiper.Load(); g != nil {
		g.engine.Push(key)
	}
	s.noteRumor(key)
}

// rumorDelta packages the hot records as a signed delta bound to the
// empty offer. Keys whose records were superseded or evicted since they
// went hot are skipped silently.
func (s *Service) rumorDelta(keys []identity.Hash) (*SyncDeltaResponse, error) {
	framed, count, err := s.store.Records(keys)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	resp := &SyncDeltaResponse{VerifierID: s.id, Count: count, Records: framed}
	if s.fed != nil && s.fed.key != nil {
		empty := SyncOfferRequest{}
		resp.Signer = s.fed.key.ID()
		resp.Signature = s.fed.key.Sign(identity.SyncDeltaDigest(offerDigest(&empty), framed, resp.Signer))
	}
	return resp, nil
}

// probe opens an exchange, pull or push-pull: this log's bucket
// fingerprints and any rumor records go out in a "gossip" message, and
// the peer's answer names the buckets on which the two logs disagree
// (none: they hold the same content) and how many rumors its gate took.
// Payload bytes and accepted rumors are folded into res.
func (s *Service) probe(ctx context.Context, peer transport.Client, rumors []identity.Hash, res *gossip.Result) (GossipSummaryResponse, error) {
	var remote GossipSummaryResponse
	if s.store == nil {
		return remote, ErrNoStore
	}
	buckets, err := s.store.Fingerprints()
	if err != nil {
		return remote, err
	}
	greq := GossipRequest{VerifierID: s.id, Buckets: buckets}
	if len(rumors) > 0 {
		if greq.Rumors, err = s.rumorDelta(rumors); err != nil {
			return remote, err
		}
	}
	msg, err := transport.NewMessage(MsgGossip, greq)
	if err != nil {
		return remote, err
	}
	res.BytesSent += uint64(len(msg.Payload))
	resp, err := peer.Call(ctx, msg)
	if err != nil {
		return remote, fmt.Errorf("service: gossip open: %w", err)
	}
	if resp.Type != MsgGossipSummary {
		return remote, fmt.Errorf("service: peer answered gossip with %q, want %q", resp.Type, MsgGossipSummary)
	}
	if err := resp.Decode(&remote); err != nil {
		return remote, err
	}
	res.BytesReceived += uint64(len(resp.Payload))
	res.Sent += remote.Applied // rumors the peer's gate accepted
	return remote, nil
}

// gossipExchange is the ExchangeFunc when there are more peers than
// fanout: one push-pull exchange with one dialed peer.
//
//  1. "gossip":       bucket fingerprints + rumors → the buckets that differ
//  2. "gossip-pull":  my manifest of those buckets → signed delta + peer's manifest
//  3. "gossip-push":  delta for peer's manifest    → peer's applied count
//
// Step 1 alone settles the common case (a converged pair trades its
// fingerprints and nothing else); steps 2–3 run only where fingerprints
// disagree, scoped to those buckets, or over complete manifests on a
// backstop round. Bytes are counted over message payloads, records over
// what the two federation gates actually accepted.
func (s *Service) gossipExchange(ctx context.Context, peer transport.Client, req gossip.Request) (gossip.Result, error) {
	var res gossip.Result
	remote, err := s.probe(ctx, peer, req.Rumors, &res)
	if err != nil {
		return res, err
	}
	var scope store.Scope // nil: a backstop round reconciles everything
	if !req.Full {
		if scope = remote.Differ; len(scope) == 0 {
			// No delta flows, so the summary's unsigned claim is all there is;
			// it only ever rides a successful result. A failed exchange reports
			// a signer the gate verified or none — the engine must not mistake a
			// peer fault for this node's own quarantine refusal on a claim.
			res.Signer = remote.Signer
			res.InSync = true
			return res, nil
		}
	}

	// Fingerprints disagree (or a backstop round): pull what the peer has
	// that this store lacks...
	offer, err := s.syncOffer(scope)
	if err != nil {
		return res, err
	}
	pull, err := transport.NewMessage(MsgGossipPull, offer)
	if err != nil {
		return res, err
	}
	res.BytesSent += uint64(len(pull.Payload))
	resp, err := peer.Call(ctx, pull)
	if err != nil {
		return res, fmt.Errorf("service: gossip pull: %w", err)
	}
	if resp.Type != MsgGossipExchange {
		return res, fmt.Errorf("service: peer answered gossip-pull with %q, want %q", resp.Type, MsgGossipExchange)
	}
	var ex GossipExchangeResponse
	if err := resp.Decode(&ex); err != nil {
		return res, err
	}
	res.BytesReceived += uint64(len(resp.Payload))
	applied, err := s.IngestDelta(offer, ex.Delta)
	res.Received += applied
	if err == nil || errors.Is(err, ErrPeerQuarantined) {
		// The gate verified the signature before applying and before the
		// quarantine refusal, so this identity is proven — exactly what
		// peer selection needs to stop picking a quarantined peer.
		res.Signer = ex.Delta.Signer
	}
	if err != nil {
		return res, err
	}

	// ...then push what this store has that the peer lacks.
	delta, err := s.ServeSyncOffer(ex.Have)
	if err != nil || delta.Count == 0 {
		return res, err
	}
	err = push(ctx, peer, GossipPushRequest{Offer: ex.Have, Delta: delta}, &res)
	return res, err
}

// pushExchange is the ExchangeFunc for a push on write (gossip.Request's
// Push): the records under keys go to the peer at once as one
// "gossip-push" of a signed delta bound to the empty offer, which the
// peer's federation gate takes like any other delta.
func (s *Service) pushExchange(ctx context.Context, peer transport.Client, keys []identity.Hash) (gossip.Result, error) {
	var res gossip.Result
	delta, err := s.rumorDelta(keys)
	if err != nil || delta == nil {
		return res, err
	}
	err = push(ctx, peer, GossipPushRequest{Delta: *delta}, &res)
	return res, err
}

// push sends one "gossip-push" and folds the payload bytes and the
// records the peer's gate applied into res.
func push(ctx context.Context, peer transport.Client, pr GossipPushRequest, res *gossip.Result) error {
	msg, err := transport.NewMessage(MsgGossipPush, pr)
	if err != nil {
		return err
	}
	res.BytesSent += uint64(len(msg.Payload))
	resp, err := peer.Call(ctx, msg)
	if err != nil {
		return fmt.Errorf("service: gossip push: %w", err)
	}
	if resp.Type != MsgGossipSummary {
		return fmt.Errorf("service: peer answered gossip-push with %q, want %q", resp.Type, MsgGossipSummary)
	}
	var pushed GossipSummaryResponse
	if err := resp.Decode(&pushed); err != nil {
		return err
	}
	res.BytesReceived += uint64(len(resp.Payload))
	res.Sent += pushed.Applied
	return nil
}

// serveGossip answers a gossip open: any rumor records go through the
// federation gate first, then the initiator's fingerprints are compared
// with this log's — so a rumor that closes the gap settles the exchange
// in-sync.
func (s *Service) serveGossip(gr GossipRequest) (GossipSummaryResponse, error) {
	if s.store == nil {
		return GossipSummaryResponse{}, ErrNoStore
	}
	resp := GossipSummaryResponse{VerifierID: s.id, Signer: s.origin}
	if gr.Rumors != nil {
		// Rumor pushes are signed against the empty offer (there is no
		// solicited one); the gate still enforces allowlist, signature
		// and quarantine, so a refused initiator fails here loudly.
		n, err := s.IngestDelta(SyncOfferRequest{}, *gr.Rumors)
		if err != nil {
			return GossipSummaryResponse{}, err
		}
		resp.Applied = n
	}
	differ, err := s.store.Differing(gr.Buckets)
	if err != nil {
		return GossipSummaryResponse{}, err
	}
	resp.Differ = differ
	return resp, nil
}
