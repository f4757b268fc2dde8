// Package rationality is the public API of the rationality-authority
// library, a reproduction of
//
//	Dolev, Panagopoulou, Rabie, Schiller, Spirakis.
//	"Rationality Authority for Provable Rational Behavior."
//	Brief announcement PODC 2011; full version LNCS 9295 (2015).
//
// The library separates three parties: a possibly biased game INVENTOR that
// announces a game together with advised actions and a checkable proof of
// their feasibility and optimality; AGENTS that refuse to act on unverified
// advice; and reputation-bearing VERIFIERS that sell general-purpose
// verification procedures. Four proof systems are implemented, one per case
// study of the paper:
//
//   - §3 enumeration certificates for pure Nash equilibria of finite
//     strategic-form games (Coq-style, deliberately intractable);
//   - §4 P1 interactive proofs for bimatrix games (supports only; the
//     verifier recovers the equilibrium by solving a linear system) and P2
//     private proofs (random membership queries bound by hash commitments;
//     nothing about the other agent's strategy is revealed);
//   - §5 participation-game advice (the symmetric equilibrium probability,
//     verified exactly against the indifference condition), including the
//     online last-mover variant;
//   - §6 online congestion games (greedy vs. inventor-statistics routing on
//     networks and parallel links, reproducing the paper's Fig. 7).
//
// This facade re-exports the user-facing surface of the internal packages;
// see README.md for a quickstart and DESIGN.md for the architecture.
package rationality

import (
	"context"
	cryptorand "crypto/rand"
	"io"
	"time"

	"rationality/internal/bimatrix"
	"rationality/internal/congestion"
	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/gossip"
	"rationality/internal/identity"
	"rationality/internal/interactive"
	"rationality/internal/links"
	"rationality/internal/numeric"
	"rationality/internal/obs"
	"rationality/internal/participation"
	"rationality/internal/proof"
	"rationality/internal/quorum"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/store"
	"rationality/internal/transport"
	"rationality/internal/trust"
)

// Exact arithmetic (see internal/numeric).
type (
	// Rat is an exact rational number (alias of math/big.Rat).
	Rat = numeric.Rat
	// Vec is a dense vector of rationals.
	Vec = numeric.Vec
	// Matrix is a dense matrix of rationals.
	Matrix = numeric.Matrix
)

// Strategic-form games (see internal/game).
type (
	// Game is a finite strategic-form game with exact rational payoffs.
	Game = game.Game
	// Profile is a pure strategy profile.
	Profile = game.Profile
	// MixedProfile assigns each agent a distribution over its strategies.
	MixedProfile = game.MixedProfile
)

// §3 proofs (see internal/proof).
type (
	// NashProof is the enumeration certificate of §3.
	NashProof = proof.Proof
	// ProofMode selects maximal/minimal/any-equilibrium certification.
	ProofMode = proof.Mode
)

// Proof modes.
const (
	MaxNash = proof.MaxNash
	MinNash = proof.MinNash
	AnyNash = proof.AnyNash
)

// Bimatrix games and §4 interactive proofs.
type (
	// BimatrixGame is a 2-agent game in matrix form.
	BimatrixGame = bimatrix.Game
	// BimatrixEquilibrium is a mixed equilibrium with both values.
	BimatrixEquilibrium = bimatrix.Equilibrium
	// P1Advice is the support-revealing advice of protocol P1 (Fig. 3).
	P1Advice = interactive.P1Advice
	// P2Prover answers the private protocol P2 (Fig. 4).
	P2Prover = interactive.P2Prover
	// P2Config tunes the P2 verifier.
	P2Config = interactive.P2Config
	// P2Report carries the P2 verifier's outcome and query statistics.
	P2Report = interactive.P2Report
	// Role selects the row or column agent.
	Role = interactive.Role
)

// Agent roles for protocol P2.
const (
	RowAgent = interactive.RowAgent
	ColAgent = interactive.ColAgent
)

// §5 participation game.
type (
	// ParticipationGame is the n-firm auction participation game.
	ParticipationGame = participation.Game
	// Branch selects the low or high root of the indifference condition.
	Branch = participation.Branch
)

// Equilibrium branches for the participation game.
const (
	LowBranch  = participation.LowBranch
	HighBranch = participation.HighBranch
)

// §6 congestion games and parallel links.
type (
	// CongestionNetwork is a directed network with load-dependent delays.
	CongestionNetwork = congestion.Network
	// CongestionConfig is a configuration of routed agents.
	CongestionConfig = congestion.Config
	// LinkSystem is the m-parallel-links scheduling state.
	LinkSystem = links.System
	// Fig7Config parameterizes the paper's Fig. 7 experiment.
	Fig7Config = links.Fig7Config
	// Fig7Point is one x-axis point of Fig. 7.
	Fig7Point = links.Fig7Point
)

// The rationality-authority framework (see internal/core).
type (
	// Announcement is the inventor's game+advice+proof message.
	Announcement = core.Announcement
	// Verdict is a verifier's answer.
	Verdict = core.Verdict
	// Agent consults inventors and verifies advice before acting.
	Agent = core.Agent
	// AgentConfig configures an Agent.
	AgentConfig = core.AgentConfig
	// InventorService serves announcements over a transport.
	InventorService = core.InventorService
	// VerifierService serves verification procedures over a transport.
	VerifierService = core.VerifierService
	// ReputationRegistry tracks party reputations and audit events.
	ReputationRegistry = reputation.Registry
	// Client is a transport client (in-process or TCP).
	Client = transport.Client
)

// The verification-authority service layer (see internal/service): a
// concurrent, cached front for the verification procedures.
type (
	// VerificationService is a long-running verifier with a bounded worker
	// pool, a content-addressed verdict cache with singleflight
	// deduplication, batch verification, operational metrics, and an
	// optional durable verdict store it warm-starts from after a restart.
	VerificationService = service.Service
	// ServiceConfig configures a VerificationService; set PersistPath to
	// enable the durable verdict store and SyncEvery to tune its fsync
	// cadence, and Key / PeerKeys to sign served sync-deltas and gate
	// pulled ones on a federation allowlist.
	ServiceConfig = service.Config
	// ServiceStats is a point-in-time snapshot of service counters.
	ServiceStats = service.Stats
	// VerdictStoreStats is the durable verdict store's counter snapshot
	// (persisted/replayed/compacted records, queue drops, crash salvage),
	// carried in ServiceStats.Persistence when persistence is enabled.
	VerdictStoreStats = store.Stats
	// ServiceLatencySummary describes observed request latencies, with
	// p50/p95/p99 estimates from the service's log2-bucket histogram.
	ServiceLatencySummary = service.LatencySummary
	// BatchVerifyRequest / BatchVerifyResponse are the "verify-batch" wire
	// payloads.
	BatchVerifyRequest  = service.BatchVerifyRequest
	BatchVerifyResponse = service.BatchVerifyResponse
)

// Service-layer wire message types (alongside the classic "verify" and
// "formats" which the service also answers). MsgSyncOffer/MsgSyncDelta
// are the anti-entropy pair: a verifier offers its verdict-log manifest
// — complete, or scoped to the key-space buckets a fingerprint probe found
// differing — and receives the CRC-framed records it is missing.
const (
	MsgVerifyBatch  = service.MsgVerifyBatch
	MsgServiceStats = service.MsgServiceStats
	MsgSyncOffer    = service.MsgSyncOffer
	MsgSyncDelta    = service.MsgSyncDelta
)

// Streaming verification (the "verify-stream" exchange): instead of one
// batch-verdicts reply after the whole batch, the authority emits one
// framed StreamVerdict per item as workers finish and closes with a
// Last-flagged StreamTrailer carrying aggregate stats, so the time to
// first verdict is one verification regardless of batch size.
type (
	// StreamVerdict is one per-item frame of a verify-stream: the item's
	// index in the submitted batch, its verdict, and — when the verdict
	// was a cache hit with a stored quorum certificate — the certificate.
	StreamVerdict = service.StreamVerdict
	// StreamTrailer is the terminal frame of a verify-stream: item and
	// delivery counts, accept/reject tallies, elapsed and first-verdict
	// timings, and the truncation flag with its reason when the stream
	// ended before all items were verified.
	StreamTrailer = service.StreamTrailer
	// PartialBatchError reports a VerifyBatch that completed some items
	// before the context was cancelled or the service closed: Done of
	// Total finished, Cause says why the rest did not. It unwraps to
	// Cause, so errors.Is(err, context.Canceled) still works.
	PartialBatchError = service.PartialBatchError
	// TransportStream is a client-side handle on an open streaming
	// exchange: Next returns frames until the Last-flagged terminal
	// frame, then ErrStreamDone; Close abandons the stream early.
	TransportStream = transport.Stream
	// StreamCaller is the transport capability streaming clients need
	// (every dialed client implements it — TCP, PipeNet and in-process
	// alike): CallStream
	// opens an exchange and returns the frame iterator.
	StreamCaller = transport.StreamCaller
	// StreamHandler is the server-side capability: a Handler that also
	// answers streaming message types frame by frame.
	StreamHandler = transport.StreamHandler
)

// Verify-stream wire message types.
const (
	// MsgVerifyStream opens a streaming batch verification.
	MsgVerifyStream = service.MsgVerifyStream
	// MsgStreamVerdict is the per-item frame type of a verify-stream.
	MsgStreamVerdict = service.MsgStreamVerdict
	// MsgStreamTrailer is the Last-flagged terminal frame type.
	MsgStreamTrailer = service.MsgStreamTrailer
	// DefaultStreamWriteTimeout is the server's per-frame write deadline:
	// a stalled reader errors the stream instead of wedging a worker.
	DefaultStreamWriteTimeout = transport.DefaultStreamWriteTimeout
)

// ErrStreamDone is returned by TransportStream.Next after the terminal
// frame has been delivered (or the stream was closed).
var ErrStreamDone = transport.ErrStreamDone

// StreamVerify drives a verify-stream from the client side: it opens the
// exchange on any StreamCaller, invokes onVerdict for every per-item
// frame in arrival order, and returns the decoded trailer. A non-nil
// onVerdict error abandons the stream and is returned verbatim.
func StreamVerify(ctx context.Context, c StreamCaller, anns []Announcement, onVerdict func(StreamVerdict) error) (*StreamTrailer, error) {
	return service.StreamVerify(ctx, c, anns, onVerdict)
}

// Tiered admission control (ServiceConfig.Admission): two token buckets
// — an interactive class for single verifications and a batch class for
// VerifyBatch / verify-stream — shed whole requests up front when the
// offered load exceeds the configured budgets. Interactive traffic may
// borrow from the batch budget when its own bucket is dry, so under
// sustained overload the batch class always saturates first and
// interactive latency stays bounded.
type (
	// AdmissionConfig sets the per-class token-bucket budgets: rates in
	// verifications per second (zero disables a class's limit) and burst
	// capacities (zero defaults to twice the rate).
	AdmissionConfig = service.AdmissionConfig
	// AdmissionStats is the admission section of ServiceStats, present
	// only when admission control is enabled.
	AdmissionStats = service.AdmissionStats
	// ClassAdmissionStats counts one class's admitted and shed requests,
	// the items those shed requests carried, and echoes its budget.
	ClassAdmissionStats = service.ClassAdmissionStats
	// AdmissionClass names an admission class on request classification
	// and in metrics labels.
	AdmissionClass = service.Class
)

// Admission classes.
const (
	// ClassInteractive is the admission class of single verifications.
	ClassInteractive = service.ClassInteractive
	// ClassBatch is the admission class of batch and streaming
	// verifications; it sheds first under overload.
	ClassBatch = service.ClassBatch
)

// ErrAdmissionRejected wraps every admission refusal; its message prefix
// ("admission rejected:") is the stable log line operators and the CI
// smoke grep for. Match with errors.Is.
var ErrAdmissionRejected = service.ErrAdmissionRejected

// The multi-verifier quorum layer (see internal/quorum): the paper's
// "majority of the verifiers is trusted", as a fan-out client.
type (
	// QuorumClient fans one verification request out to a panel of
	// verifiers concurrently, weighted-majority-votes the verdicts
	// through a reputation registry (every vote moves the voter's
	// reputation), and returns a certified verdict with a dissent report.
	QuorumClient = quorum.Client
	// QuorumConfig configures a QuorumClient: the panel, the registry,
	// the per-member timeout, and the reputation threshold below which a
	// member is no longer consulted.
	QuorumConfig = quorum.Config
	// QuorumMember is one verifier on the panel: reputation identity
	// plus the client it answers on.
	QuorumMember = quorum.Member
	// QuorumVote is one member's recorded vote, with its post-vote
	// reputation and dissent flag.
	QuorumVote = quorum.Vote
	// QuorumResult is a quorum-certified verdict plus the dissent report.
	QuorumResult = quorum.Result
	// SyncOfferRequest / SyncDeltaResponse are the "sync-offer" /
	// "sync-delta" anti-entropy wire payloads; a keyed responder signs
	// the delta (Signer/Signature) over the canonical delta digest.
	SyncOfferRequest  = service.SyncOfferRequest
	SyncDeltaResponse = service.SyncDeltaResponse
)

// Aggregate quorum certificates (CoSi-style): a coordinator runs the
// panel fan-out once, collects each member's Ed25519 co-signature over
// the canonical verdict digest, and assembles a certificate any client
// verifies offline — one request to any authority holding it plus
// signature checks against the known panel keyset, no live panel needed.
type (
	// Certificate is a quorum-certified verdict: the request key, the
	// verdict, a panel-member bitmap over the agreed ordered keyset, and
	// the co-signatures of the set bits. Verify checks it offline.
	Certificate = core.Certificate
	// Certifier is the certificate coordinator: one fan-out over the
	// panel, one Certificate out. Build it with NewCertifier.
	Certifier = quorum.Certifier
	// CertifierConfig configures a Certifier: the panel members, the
	// ordered keyset (the bitmap index space every party must share), the
	// co-signature threshold (zero means supermajority) and the
	// per-member call timeout.
	CertifierConfig = quorum.CertifierConfig
	// CoSignRequest / CoSignResponse are the "cosign" wire payloads: a
	// verification request in, the member's verdict plus its Ed25519
	// signature over the canonical certificate digest out.
	CoSignRequest  = service.CoSignRequest
	CoSignResponse = service.CoSignResponse
	// CertPutRequest / CertPutResponse are the "cert-put" wire payloads:
	// an assembled certificate submitted for durable storage (verified
	// against the authority's ServiceConfig.PanelKeys first).
	CertPutRequest  = service.CertPutRequest
	CertPutResponse = service.CertPutResponse
	// CertGetRequest / CertGetResponse are the "cert-get" wire payloads:
	// the one request an offline client needs — a hex verdict key in, the
	// stored certificate out.
	CertGetRequest  = service.CertGetRequest
	CertGetResponse = service.CertGetResponse
)

// Certificate wire message types.
const (
	// MsgCoSign asks an authority to verify and co-sign one request.
	MsgCoSign = service.MsgCoSign
	// MsgCoSigned is the reply type to a cosign request.
	MsgCoSigned = service.MsgCoSigned
	// MsgCertPut submits an assembled certificate for durable storage.
	MsgCertPut = service.MsgCertPut
	// MsgCertReceipt is the reply type to a cert-put.
	MsgCertReceipt = service.MsgCertReceipt
	// MsgCertGet fetches a stored certificate by its hex verdict key.
	MsgCertGet = service.MsgCertGet
	// MsgCertificate is the reply type to a cert-get.
	MsgCertificate = service.MsgCertificate
)

// Certificate errors.
var (
	// ErrCertificateRejected wraps every certificate verification failure;
	// its message prefix ("certificate rejected:") is the stable log line
	// operators and the CI smoke grep for.
	ErrCertificateRejected = core.ErrCertificateRejected
	// ErrCertification wraps a Certifier fan-out that could not assemble a
	// certificate (too few valid co-signatures over one verdict).
	ErrCertification = quorum.ErrCertification
)

// NewCertifier validates the panel and keyset and builds the certificate
// coordinator. Member clients are borrowed, not owned.
func NewCertifier(cfg CertifierConfig) (*Certifier, error) { return quorum.NewCertifier(cfg) }

// SupermajorityThreshold is the default co-signature bar for a panel of n:
// ⌊2n/3⌋+1, the smallest count a coalition of fewer than n/3 Byzantine
// members cannot assemble two of over conflicting verdicts.
func SupermajorityThreshold(n int) int { return core.SupermajorityThreshold(n) }

// EncodeCertificate serializes a certificate for storage or transfer;
// DecodeCertificate is its inverse (nil in, nil out).
func EncodeCertificate(c *Certificate) ([]byte, error) { return core.EncodeCertificate(c) }

// DecodeCertificate parses a certificate encoded by EncodeCertificate.
func DecodeCertificate(raw []byte) (*Certificate, error) { return core.DecodeCertificate(raw) }

// Federation (signed anti-entropy across operator boundaries): each
// authority holds a persistent Ed25519 identity, signs every sync-delta
// it serves, and verifies pulled deltas against a peer allowlist before
// anything reaches its durable log — ingested verdicts carry the signing
// peer's identity as on-disk provenance.
type (
	// PartyID is a self-certifying party identifier: the hex encoding of
	// an Ed25519 public key. It keys reputation registries, federation
	// allowlists (ServiceConfig.PeerKeys) and verdict provenance.
	PartyID = identity.PartyID
	// FederationStats is the trust-boundary section of ServiceStats: the
	// authority's signing identity, allowlist size, per-peer delta
	// counters and the rejection cause buckets.
	FederationStats = service.FederationStats
	// PeerSyncStats counts one federation peer's accepted and rejected
	// anti-entropy deltas (and the records they applied).
	PeerSyncStats = service.PeerSyncStats
)

// Federation errors surfaced by the anti-entropy ingest gate.
var (
	// ErrUnsignedDelta rejects an unsigned sync-delta on a service whose
	// ServiceConfig.PeerKeys allowlist is configured.
	ErrUnsignedDelta = service.ErrUnsignedDelta
	// ErrUnknownSigner rejects a sync-delta signed by a key outside the
	// allowlist.
	ErrUnknownSigner = service.ErrUnknownSigner
	// ErrBadSignature is the underlying verification failure for a
	// forged, tampered or replayed signature.
	ErrBadSignature = identity.ErrBadSignature
)

// The accountability loop (see internal/trust and the service layer's
// audit pipeline): proven refutations charge the vouching peer's
// reputation, a trust policy quarantines peers that fall below threshold
// — their deltas are counted but refused, the sync loop stops dialing
// them — and probation is the earned re-entry path. Quarantine state
// persists across restarts.
type (
	// TrustPolicy is the per-peer quarantine state machine
	// (active → quarantined → probation → active), driven by the shared
	// reputation registry and persisted on every transition. Attach one
	// via ServiceConfig.Trust.
	TrustPolicy = trust.Policy
	// TrustConfig parameterizes a TrustPolicy: registry, quarantine
	// threshold, readmission bar, probation duration and state file.
	TrustConfig = trust.Config
	// TrustState is a peer's standing: TrustActive, TrustQuarantined or
	// TrustProbation.
	TrustState = trust.State
	// TrustStatus is one peer's standing joined with its live reputation,
	// as reported by TrustPolicy.Snapshot.
	TrustStatus = trust.Status
	// ProvenanceResponse is the "provenance" wire reply: whose word the
	// authority is serving, one ProvenancePeer per vouching party.
	ProvenanceResponse = service.ProvenanceResponse
	// ProvenancePeer is one vouching party: its live-record count joined
	// with the trust policy's standing.
	ProvenancePeer = service.ProvenancePeer
	// ChaosClient wraps a transport client with seeded fault injection
	// (drop, delay, duplicate, garble) for resilience tests.
	ChaosClient = transport.ChaosClient
	// ChaosConfig sets the per-fault probabilities and the seed of a
	// ChaosClient.
	ChaosConfig = transport.ChaosConfig
	// ChaosStats counts the faults a ChaosClient has injected.
	ChaosStats = transport.ChaosStats
)

// Peer standings of the trust policy's state machine.
const (
	// TrustActive: deltas are ingested and the replication loop dials the
	// peer.
	TrustActive = trust.Active
	// TrustQuarantined: deltas are counted but refused; the replication
	// loop skips the peer until probation opens.
	TrustQuarantined = trust.Quarantined
	// TrustProbation: ingestion has resumed on trial — clean exchanges
	// readmit the peer, one new charge re-quarantines it.
	TrustProbation = trust.Probation
	// MsgProvenance is the wire message type of the provenance report.
	MsgProvenance = service.MsgProvenance
)

// Accountability errors.
var (
	// ErrPeerQuarantined rejects a sync-delta whose signer the trust
	// policy currently quarantines.
	ErrPeerQuarantined = service.ErrPeerQuarantined
	// ErrInjectedDrop is returned by a ChaosClient call it swallowed.
	ErrInjectedDrop = transport.ErrInjectedDrop
)

// NewTrustPolicy builds the quarantine state machine over a reputation
// registry; set TrustConfig.Path to persist peer standings across
// restarts.
func NewTrustPolicy(cfg TrustConfig) (*TrustPolicy, error) { return trust.New(cfg) }

// Chaos wraps a client with seeded fault injection; with a zero
// ChaosConfig it is a transparent pass-through.
func Chaos(inner Client, cfg ChaosConfig) *ChaosClient { return transport.Chaos(inner, cfg) }

// Replication (see internal/gossip and the service layer's Gossiper): the
// one round loop every federated authority runs — jittered cadence,
// per-peer exponential backoff, a circuit breaker for dead peers, and
// quarantine-aware partner selection. When the fanout covers every peer
// each exchange is a plain signed pull; with more peers than fanout it is
// epidemic push-pull — store fingerprints, rumor records and signed
// deltas with a small random fan-out, so an update reaches every
// authority in O(log n) rounds while a converged federation idles on
// cheap fingerprint probes. Every record still enters through the signed
// federation gate — allowlist, signatures, quarantine, auditing.
type (
	// Gossiper is a service's replication loop. Build with
	// VerificationService.StartGossiper; step manually with Round when
	// GossiperConfig.Interval is zero.
	Gossiper = service.Gossiper
	// GossiperConfig configures StartGossiper: peers, fanout, round
	// cadence, backoff cap, breaker threshold, rumor TTL, anti-entropy
	// backstop cadence, seed and dialer.
	GossiperConfig = service.GossiperConfig
	// GossipStats is the gossip section of ServiceStats: round, exchange
	// and in-sync counters, records and bytes by direction, the rumor
	// board population, the resolved seed and the per-peer view.
	GossipStats = gossip.Stats
	// GossipPeerStats is one partner's replication state: breaker state,
	// consecutive failures, remaining backoff, attempts, failures, records
	// moved and skip counts by reason.
	GossipPeerStats = gossip.PeerStats
	// GossipRequest opens a replication exchange on the wire: the
	// initiator's per-bucket store fingerprints plus optional rumor records.
	GossipRequest = service.GossipRequest
	// GossipSummaryResponse answers a gossip open or push: which buckets'
	// fingerprints differ (open only; none means in sync) and how many
	// carried records the responder accepted.
	GossipSummaryResponse = service.GossipSummaryResponse
	// GossipExchangeResponse answers a gossip-pull: the signed delta for
	// the initiator's manifest plus the responder's own manifest over the
	// same scope.
	GossipExchangeResponse = service.GossipExchangeResponse
	// GossipPushRequest completes an exchange: the responder's echoed
	// manifest and the signed delta answering it.
	GossipPushRequest = service.GossipPushRequest
	// PipeNet is an in-memory network: named listeners and dialers whose
	// connections are net.Pipe pairs served and driven by the same server
	// loop and pooled client as TCP, with a bytes-on-wire counter —
	// multi-authority tests without ports.
	PipeNet = transport.PipeNet
)

// Gossip wire message types (the push-pull exchange protocol).
const (
	// MsgGossip opens an exchange with a fingerprint and optional rumors.
	MsgGossip = service.MsgGossip
	// MsgGossipSummary answers MsgGossip and MsgGossipPush.
	MsgGossipSummary = service.MsgGossipSummary
	// MsgGossipPull asks for reconciliation with the initiator's manifest.
	MsgGossipPull = service.MsgGossipPull
	// MsgGossipExchange is the reply type to a gossip-pull.
	MsgGossipExchange = service.MsgGossipExchange
	// MsgGossipPush completes the exchange with the initiator's delta.
	MsgGossipPush = service.MsgGossipPush
)

// NewPipeNet builds an empty in-memory network; register handlers with
// Listen and open clients with Dial.
func NewPipeNet() *PipeNet { return transport.NewPipeNet() }

// LoadKeyFile reads a signing identity saved by SaveKeyFile (hex Ed25519
// seed, one line, mode 0600). A malformed file is an error, never a
// silently regenerated identity.
func LoadKeyFile(path string) (*KeyPair, error) { return identity.LoadKeyFile(path) }

// SaveKeyFile writes a signing identity's seed to path atomically with
// 0600 permissions.
func SaveKeyFile(path string, k *KeyPair) error { return identity.SaveKeyFile(path, k) }

// LoadOrCreateKeyFile loads the keyfile at path, generating and saving a
// fresh identity when the file does not exist; the flag reports creation
// (the cue to distribute the new public ID to federation peers).
func LoadOrCreateKeyFile(path string) (*KeyPair, bool, error) {
	return identity.LoadOrCreateKeyFile(path)
}

// ParsePartyID validates operator input (an allowlist entry, a config
// value) as a well-formed party identifier.
func ParsePartyID(s string) (PartyID, error) { return identity.ParsePartyID(s) }

// NewQuorumClient validates the panel and builds a quorum client. Member
// clients are borrowed, not owned: closing them stays with the caller.
func NewQuorumClient(cfg QuorumConfig) (*QuorumClient, error) { return quorum.New(cfg) }

// ErrServiceClosed is returned for requests submitted after a
// VerificationService has been closed.
var ErrServiceClosed = service.ErrServiceClosed

// DefaultSyncEvery is the verdict store's default fsync cadence in
// records, used when ServiceConfig.SyncEvery is zero. A crash can lose
// the verdicts not yet synced — at most SyncEvery-1 written records plus
// whatever is still queued with the store's flusher; set SyncEvery to 1
// to sync every written verdict.
const DefaultSyncEvery = store.DefaultSyncEvery

// NewVerificationService starts a verification service; release it with
// Close, which drains in-flight requests gracefully.
func NewVerificationService(cfg ServiceConfig) (*VerificationService, error) {
	return service.New(cfg)
}

// The operator plane (see internal/obs): Prometheus metrics, health and
// readiness probes, and pprof profiling for a running authority, served
// on a dedicated admin listener away from the verification port.
type (
	// AdminServer is the authority's HTTP admin listener: /metrics
	// (Prometheus text exposition of ServiceStats), /healthz (process
	// liveness), /readyz (the readiness latch) and /debug/pprof. Create it
	// with NewAdminServer; Close drains in-flight scrapes gracefully.
	AdminServer = obs.Server
	// AdminServerConfig configures an AdminServer: the listen address, the
	// verifier identity stamped on the info metric, the stats snapshot
	// source, and the optional readiness latch gating /readyz.
	AdminServerConfig = obs.ServerConfig
	// Readiness is a monotone readiness latch: named startup gates are
	// marked done exactly once, and /readyz flips to 200 when the last
	// gate marks. Build it with NewReadiness.
	Readiness = obs.Readiness
)

// Readiness gate names the authority marks while starting up.
const (
	// GateWarmStart marks the durable verdict log replayed into the cache.
	GateWarmStart = obs.GateWarmStart
	// GateFirstSync marks the first anti-entropy round that completed at
	// least one successful peer exchange.
	GateFirstSync = obs.GateFirstSync
)

// MetricsContentType is the Content-Type of the Prometheus text
// exposition served on /metrics and written by WritePrometheus.
const MetricsContentType = obs.MetricsContentType

// NewAdminServer binds the admin listener and starts serving; the
// returned server is already answering probes.
func NewAdminServer(cfg AdminServerConfig) (*AdminServer, error) { return obs.NewServer(cfg) }

// NewReadiness builds a readiness latch over the named gates; with no
// gates it is born ready.
func NewReadiness(gates ...string) *Readiness { return obs.NewReadiness(gates...) }

// WritePrometheus renders a stats snapshot as Prometheus text exposition
// — the same families an AdminServer serves on /metrics — for embedders
// that mount the authority behind their own HTTP stack.
func WritePrometheus(w io.Writer, verifierID string, st ServiceStats) error {
	return obs.WriteMetrics(w, verifierID, st)
}

// WriteStatsText renders a stats snapshot as the stable human-readable
// lines the authority's stats subcommand prints.
func WriteStatsText(w io.Writer, st ServiceStats) { obs.WriteText(w, st) }

// Proof formats understood by the bundled verification procedures.
const (
	FormatEnumeration   = core.FormatEnumeration
	FormatP1            = core.FormatP1
	FormatNAgent        = core.FormatNAgent
	FormatParticipation = core.FormatParticipation
	FormatCorrelated    = core.FormatCorrelated
	FormatLastMover     = core.FormatLastMover
)

// Dominance kinds (see Game.Dominates, Game.DominantEquilibrium).
const (
	StrictDominance = game.Strict
	WeakDominance   = game.Weak
)

// CorrelatedDistribution is a distribution over pure profiles; see
// Game.IsCorrelatedEquilibrium and Game.SolveCorrelatedEquilibrium.
type CorrelatedDistribution = game.CorrelatedDistribution

// R returns the exact rational a/b.
func R(a, b int64) *Rat { return numeric.R(a, b) }

// I returns the exact rational a/1.
func I(a int64) *Rat { return numeric.I(a) }

// MustRat parses a rational literal like "3/8" or panics.
func MustRat(s string) *Rat { return numeric.MustRat(s) }

// NewGame creates a strategic-form game with the given per-agent strategy
// counts and all payoffs zero.
func NewGame(name string, strategyCounts []int) (*Game, error) {
	return game.New(name, strategyCounts)
}

// NewBimatrixFromInts builds a 2-agent game from integer payoff matrices.
func NewBimatrixFromInts(a, b [][]int64) *BimatrixGame { return bimatrix.FromInts(a, b) }

// BuildNashProof constructs the §3 enumeration certificate for the advised
// profile, or fails if the claim is false.
func BuildNashProof(g *Game, advised Profile, mode ProofMode) (*NashProof, error) {
	return proof.Build(g, advised, mode)
}

// CheckNashProof verifies a §3 certificate against the game.
func CheckNashProof(g *Game, p *NashProof) error { return proof.Check(g, p) }

// BuildP1Advice computes an equilibrium of the bimatrix game (the hard step)
// and reduces it to the P1 support advice.
func BuildP1Advice(g *BimatrixGame) (*P1Advice, *BimatrixEquilibrium, error) {
	return interactive.BuildP1Advice(g)
}

// VerifyP1 runs both agents' P1 verifiers: it recovers the equilibrium from
// the supports in polynomial time or rejects.
func VerifyP1(g *BimatrixGame, advice *P1Advice) (*BimatrixEquilibrium, error) {
	return interactive.VerifyP1(g, advice)
}

// VerifyP2 runs the private Fig. 4 verifier for one agent against a prover.
func VerifyP2(g *BimatrixGame, role Role, prover P2Prover, cfg P2Config) (*P2Report, error) {
	return interactive.VerifyP2(g, role, prover, cfg)
}

// NewHonestP2Prover builds the honest P2 prover for a known equilibrium,
// drawing commitment salts from crypto/rand.
func NewHonestP2Prover(g *BimatrixGame, eq *BimatrixEquilibrium) (P2Prover, error) {
	return interactive.NewHonestProver(g, eq, cryptorand.Reader)
}

// NewParticipationGame creates the §5 game ⟨n, k, v, c⟩.
func NewParticipationGame(n, k int, v, c *Rat) (*ParticipationGame, error) {
	return participation.New(n, k, v, c)
}

// NewCongestionNetwork creates a network with n nodes.
func NewCongestionNetwork(n int) (*CongestionNetwork, error) { return congestion.NewNetwork(n) }

// NewReputationRegistry creates an empty reputation registry.
func NewReputationRegistry() *ReputationRegistry { return reputation.NewRegistry() }

// NewInventor wraps a prepared announcement as a servable party.
func NewInventor(a Announcement) (*InventorService, error) { return core.NewInventorService(a) }

// NewVerifier creates an honest verifier with the bundled procedures.
func NewVerifier(id string) (*VerifierService, error) { return core.NewVerifierService(id) }

// NewAgent builds the counselee party.
func NewAgent(cfg AgentConfig) (*Agent, error) { return core.NewAgent(cfg) }

// DialInProc connects a client to a co-located party (an InventorService or
// VerifierService) without any networking: the same client and codec as
// DialTCP over an in-memory pipe.
func DialInProc(h transport.Handler) Client { return transport.DialInProc(h) }

// DialTCP connects a client to a remote party over a single TCP
// connection; calls serialize on it.
func DialTCP(addr string, timeout time.Duration) (Client, error) {
	return DialTCPPool(addr, timeout, 1)
}

// DialTCPPool connects a client to a remote party over a pool of up to
// conns TCP connections (zero means the transport's default), dialed
// lazily, so concurrent Calls proceed in parallel instead of serializing
// on one connection.
func DialTCPPool(addr string, timeout time.Duration, conns int) (Client, error) {
	c, err := transport.DialTCPPool(addr, timeout, conns)
	if err != nil {
		// Return an untyped nil: a nil *TCPClient inside a non-nil Client
		// interface would defeat callers' nil checks.
		return nil, err
	}
	return c, nil
}

// AnnounceEnumeration is the honest inventor's §3 pipeline: find the best
// equilibrium, prove it, package the announcement.
func AnnounceEnumeration(inventorID string, g *Game, mode ProofMode) (Announcement, error) {
	return core.AnnounceEnumeration(inventorID, g, mode)
}

// AnnounceP1 is the honest inventor's §4 pipeline for bimatrix games.
func AnnounceP1(inventorID, name string, g *BimatrixGame) (Announcement, error) {
	return core.AnnounceP1(inventorID, name, g)
}

// AnnounceParticipation is the honest inventor's §5 pipeline.
func AnnounceParticipation(inventorID, name string, g *ParticipationGame, branch Branch) (Announcement, error) {
	return core.AnnounceParticipation(inventorID, name, g, branch)
}

// KeyPair is an Ed25519 signing identity for announcement accountability.
type KeyPair = identity.KeyPair

// NewKeyPair generates a signing identity from crypto/rand.
func NewKeyPair() (*KeyPair, error) { return identity.NewKeyPair() }

// SignAnnouncement binds an announcement to a key pair; the inventor ID
// becomes the signer's self-certifying identity.
func SignAnnouncement(k *KeyPair, ann Announcement) (Announcement, error) {
	return core.SignAnnouncement(k, ann)
}

// VerifyAnnouncementSignature checks an announcement's inventor signature.
func VerifyAnnouncementSignature(ann Announcement) error {
	return core.VerifyAnnouncementSignature(ann)
}

// AnnounceCorrelated solves the welfare-optimal correlated equilibrium and
// packages it as a verifiable announcement (the untrusted correlation
// device).
func AnnounceCorrelated(inventorID string, g *Game) (Announcement, error) {
	return core.AnnounceCorrelated(inventorID, g)
}

// AnnounceLastMover publishes the §5 online decision table with per-entry
// verifiable best-reply claims.
func AnnounceLastMover(inventorID, name string, g *ParticipationGame) (Announcement, error) {
	return core.AnnounceLastMover(inventorID, name, g)
}

// NewP2ProverService exposes a P2 prover over a transport so the private
// protocol can run between machines.
func NewP2ProverService(p P2Prover) (*core.P2ProverService, error) {
	return core.NewP2ProverService(p)
}

// NewRemoteP2Prover adapts a transport client into a P2Prover that
// interactive verifiers can drive.
func NewRemoteP2Prover(ctx context.Context, c Client) P2Prover {
	return core.NewRemoteP2Prover(ctx, c)
}

// SimulateFig7Point runs the paper's Fig. 7 experiment for one link count.
func SimulateFig7Point(m int, cfg Fig7Config) (Fig7Point, error) {
	return links.SimulatePoint(m, cfg)
}
