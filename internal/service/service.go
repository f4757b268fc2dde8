// Package service is the verification-authority service layer: a
// long-running, concurrent front for the core.ProcedureRegistry. The paper
// casts verifiers as "trustable service providers that profit from selling
// general purpose verification procedures"; this package makes that literal
// with the machinery a selling service needs under load:
//
//   - Config.Workers procedure slots, so many agents can submit
//     announcements concurrently while at most Workers procedures run at
//     once; stream items, co-signs and audits take the same slots, and a
//     stream runs on at most Workers goroutines, so wire-controlled batch
//     sizes never translate into extra goroutines;
//   - a sharded, content-addressed verdict cache (SHA-256 over format,
//     game, advice and proof via identity.DigestBytes) with singleflight
//     deduplication, so a popular announcement is verified exactly once no
//     matter how many agents ask at the same time — and a cache hit
//     touches only its own shard's lock, never a global one;
//   - a stream API that fans a slice of announcements across the slots
//     and emits each verdict as it completes;
//   - lock-free operational metrics: atomic request/hit/miss/dedup
//     counters, an in-flight gauge and an atomic log-scale latency
//     histogram with percentile estimates, exposed as a Stats snapshot and
//     over the wire;
//   - automatic reputation recording: verdicts on announcements are fed to
//     a reputation.Registry, so inventors whose proofs fail verification
//     accumulate auditable misbehaviour reports;
//   - optional durability: with Config.PersistPath set, fresh verdicts are
//     appended asynchronously to a crash-safe segment log (internal/store)
//     and New warm-starts by replaying the log into the cache, so a
//     restarted authority serves its history as cache hits without
//     re-running a single procedure — and the hit path never touches the
//     store at all.
//
// The service implements transport.Handler, understands the classic
// "verify" and "formats" messages plus "service-stats", the replication
// and certificate messages and the "verify-stream" batch exchange
// (transport.StreamHandler), and drains gracefully on Close: in-flight
// requests finish, new ones are refused with ErrServiceClosed.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/reputation"
	"rationality/internal/store"
	"rationality/internal/trust"
)

// ErrServiceClosed is returned for requests submitted after Close.
var ErrServiceClosed = errors.New("service: closed")

// DefaultCacheSize bounds the verdict cache when Config.CacheSize is zero.
const DefaultCacheSize = 1024

// Config configures a verification service.
type Config struct {
	// ID is the verifier identity reported in wire replies. Required.
	ID string
	// Procedures is the registry to serve; nil means the bundled
	// procedures (core.NewProcedureRegistry).
	Procedures *core.ProcedureRegistry
	// Workers bounds concurrent procedure executions — unary requests,
	// stream items, co-signs and audits together; zero or negative means
	// GOMAXPROCS.
	Workers int
	// CacheSize bounds the verdict cache in entries. Zero means
	// DefaultCacheSize; negative disables caching.
	CacheSize int
	// CacheShards stripes the verdict cache so concurrent lookups contend
	// only when they land on the same stripe. Zero or negative means
	// DefaultCacheShards; values are rounded up to the next power of two
	// and capped so every shard holds at least one entry.
	CacheShards int
	// Reputation, when non-nil, receives a record for every verdict on an
	// announcement: acceptance as agreement, rejection as a misbehaviour
	// report against the inventor.
	Reputation *reputation.Registry
	// PersistPath, when non-empty, names a directory for the durable
	// verdict store (internal/store): every fresh verdict is appended to
	// a crash-safe segment log there, and New warm-starts by replaying
	// the log into the verdict cache before returning — a restarted
	// service serves its old verdicts as cache hits without re-running
	// any procedure. Persistence is asynchronous and never touches the
	// cache-hit path.
	PersistPath string
	// SyncEvery is the store's fsync cadence in appended records; zero
	// or negative means store.DefaultSyncEvery. One syncs every verdict
	// (maximum durability, one syscall per fresh verdict). Ignored when
	// PersistPath is empty.
	SyncEvery int
	// Key, when non-nil, is this authority's signing identity: every
	// sync-delta served to a peer is Ed25519-signed over the canonical
	// delta digest, and locally verified verdicts are persisted with the
	// key's party ID as their provenance.
	Key *identity.KeyPair
	// PeerKeys, when non-empty, is the federation allowlist: sync-deltas
	// pulled from peers must be signed by one of these party IDs (hex
	// Ed25519 public keys) or they are rejected — and counted — before
	// the store sees a byte. Empty means any peer's delta is accepted
	// (the intra-operator trust model of a single-fleet deployment).
	PeerKeys []identity.PartyID
	// PanelKeys, when non-empty, is the ordered quorum-certificate panel:
	// the known Ed25519 party IDs whose co-signatures a core.Certificate
	// must carry. Order matters — the certificate's panel bitmap indexes
	// this slice — so every authority and client in a deployment must
	// configure the identical list. When set, certificates submitted over
	// the wire (MsgCertPut) or carried in by anti-entropy are verified
	// offline against this keyset before they are stored; failures are
	// counted and logged with the "certificate rejected:" prefix. Empty
	// means certificates are stored and served unverified (the
	// single-operator trust model).
	PanelKeys []identity.PartyID
	// CertThreshold is the minimum co-signature count a verified
	// certificate must carry; zero means the supermajority default
	// core.SupermajorityThreshold(len(PanelKeys)). Ignored when PanelKeys
	// is empty.
	CertThreshold int
	// Trust, when non-nil, is the quarantine policy enforced at the
	// federation gate: deltas signed by a quarantined peer are counted
	// but refused (ErrPeerQuarantined), refuted records charge the peer
	// that vouched for them, and clean audited exchanges credit it back.
	Trust *trust.Policy
	// AuditRate, in [0, 1], is the probability that each record ingested
	// from a peer is re-verified locally by the background auditor: its
	// persisted request is re-run through the procedure registry, and a
	// verdict that contradicts the peer's is a proven lie — the record is
	// repaired with the locally computed verdict and the vouching peer is
	// charged through Trust. Zero disables auditing; a positive rate
	// requires PersistPath (the audit re-runs what the log ingested).
	AuditRate float64
	// Seed seeds the service's internal randomness — today the audit
	// sampler. Zero draws from the clock; setting it makes a run's
	// sampling decisions reproducible (the replication loop takes its
	// own seed in gossip.Config).
	Seed int64
	// Admission configures the two-tier admission controller: interactive
	// requests (Verify/VerifyAnnouncement) and streams (VerifyStream)
	// draw from per-class token buckets, and
	// the interactive tier borrows from the batch budget under pressure,
	// so batch traffic is shed strictly first. The zero value disables
	// admission control (every request admitted, Stats.Admission nil).
	Admission AdmissionConfig
}

// Service is a concurrent, cached verification authority. It is safe for
// use by many goroutines; create it with New and release it with Close.
type Service struct {
	id      string
	procs   *core.ProcedureRegistry
	cache   *verdictCache
	flight  *flightGroup
	metrics metrics
	rep     *reputation.Registry
	workers int

	// admission, when non-nil, is the two-tier token-bucket gate charged
	// before any verification work is queued (Config.Admission).
	admission *admissionController

	// fed, when non-nil, is the federation trust layer: signing key,
	// peer allowlist, and per-peer acceptance/rejection counters.
	fed *federation

	// trust, when non-nil, is the quarantine policy (Config.Trust); origin
	// is this authority's own signing identity, so the auditor can tell
	// foreign records from ones it vouched for itself.
	trust  *trust.Policy
	origin identity.PartyID

	// panelKeys and certThreshold gate incoming quorum certificates
	// (Config.PanelKeys / Config.CertThreshold); empty panelKeys means
	// certificates pass unverified.
	panelKeys     []identity.PartyID
	certThreshold int

	// audits feeds the background auditor: records sampled at ingest at
	// Config.AuditRate. The send is non-blocking — a saturated auditor
	// sheds samples rather than stalling anti-entropy. The sampler draws
	// from the service's own seeded source (Config.Seed), never the
	// global math/rand state, so seeded runs replay their decisions.
	auditRate float64
	audits    chan store.Record
	auditWG   sync.WaitGroup
	rngMu     sync.Mutex
	rng       *rand.Rand

	// gossiper, when set, is the replication loop reported as
	// Stats().Gossip.
	gossiper atomic.Pointer[Gossiper]

	// store, when non-nil, is the durable verdict log. Fresh verdicts
	// are handed to it with one non-blocking channel send right after
	// they enter the cache; cache hits never touch it.
	store    *store.Store
	storeErr error // the store's Close error, surfaced by Service.Close
	// replayed is how many recovered verdicts actually survived in the
	// cache at New — the number Stats reports, which can be smaller than
	// the store's on-disk live set when the cache (or a hash-skewed
	// shard) is the smaller of the two.
	replayed uint64

	// slots holds one token per running procedure, at most workers of
	// them. A procedure call takes a token on its caller's goroutine and
	// returns it when the procedure returns; cache lookup, singleflight
	// waits, cache.Put, store appends and emits all run holding none. A
	// slot holder waits on nothing the service controls — no other slot,
	// no singleflight leader, no channel — so the bound cannot deadlock.
	slots chan struct{}

	// state packs the lifecycle into one word so admission control is a
	// single CAS instead of a global mutex: bit 63 is the closed flag,
	// the low bits count in-flight requests. drained is closed when the
	// last in-flight request of a closed service releases (or by Close
	// itself when nothing is in flight); shutdown serializes the
	// teardown across concurrent Close calls.
	state    atomic.Uint64
	drained  chan struct{}
	shutdown sync.Once
}

// stateClosed is the closed flag inside Service.state.
const stateClosed = uint64(1) << 63

// New starts a service, warm-started from Config.PersistPath when set: it
// serves as soon as New returns.
func New(cfg Config) (*Service, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("service: config needs an ID")
	}
	procs := cfg.Procedures
	if procs == nil {
		procs = core.NewProcedureRegistry()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	cacheShards := cfg.CacheShards
	if cacheShards <= 0 {
		cacheShards = DefaultCacheShards
	}
	s := &Service{
		id:      cfg.ID,
		procs:   procs,
		cache:   newVerdictCache(cacheSize, cacheShards),
		flight:  newFlightGroup(),
		rep:     cfg.Reputation,
		workers: workers,
		slots:   make(chan struct{}, workers),
		drained: make(chan struct{}),
	}
	s.admission = newAdmissionController(cfg.Admission)
	fed, err := newFederation(cfg.Key, cfg.PeerKeys)
	if err != nil {
		return nil, err
	}
	s.fed = fed
	s.trust = cfg.Trust
	s.origin = signerID(cfg.Key)
	for _, pk := range cfg.PanelKeys {
		canonical, err := identity.ParsePartyID(string(pk))
		if err != nil {
			return nil, fmt.Errorf("service: panel keyset: %w", err)
		}
		s.panelKeys = append(s.panelKeys, canonical)
	}
	s.certThreshold = cfg.CertThreshold
	if cfg.AuditRate < 0 || cfg.AuditRate > 1 {
		return nil, fmt.Errorf("service: AuditRate must be in [0, 1], got %g", cfg.AuditRate)
	}
	if cfg.AuditRate > 0 && cfg.PersistPath == "" {
		// The auditor re-runs requests the durable log ingested; with no
		// log there is nothing to sample and a configured-but-inert audit
		// rate would read as assurance that is not there.
		return nil, fmt.Errorf("service: AuditRate requires PersistPath: the auditor re-verifies ingested records from the durable log")
	}
	s.auditRate = cfg.AuditRate
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s.rng = rand.New(rand.NewSource(seed))
	if cfg.PersistPath != "" {
		if cfg.CacheSize < 0 {
			// Persistence exists to warm-start the cache; with caching
			// disabled every replayed verdict would be discarded and
			// every repeat verification would append a duplicate record
			// — all cost, no benefit. Refuse the combination.
			return nil, fmt.Errorf("service: PersistPath requires the verdict cache (CacheSize must not be negative)")
		}
		// Warm start: recover the durable log and replay into the cache
		// before New returns (and therefore before the first listener
		// exists), so a restarted authority's first request can already
		// be a hit. Replay order is oldest-first, which seeds the
		// cache's recency stamps sensibly; when the log holds more live
		// verdicts than the cache can, only the newest cacheSize records
		// are replayed — the rest would just churn through eviction.
		// MaxLive ties the store's retention to the cache capacity:
		// records beyond it could never be replayed, so keeping them
		// would only grow the log, the index and the recovery time.
		// Retain hands compaction the cache's residency check — a hot
		// verdict's append stamp never refreshes (hits bypass the
		// store), so residency, not stamp age, is what marks the
		// records worth carrying across restarts.
		vs, live, err := store.Open(cfg.PersistPath, store.Options{
			SyncEvery: cfg.SyncEvery,
			MaxLive:   cacheSize,
			Retain:    s.cache.Contains,
			// Every fresh verdict is persisted under this authority's own
			// signing identity, so provenance is answerable even for
			// records that never crossed a wire.
			Origin: signerID(cfg.Key),
			// Compact once the live set outgrows the cache by a
			// quarter: the surplus a warm start may have to trim stays
			// proportional to the cache, and each compaction re-ranks
			// stamps by warmth, so the trim drops cold records first.
			CompactAt: max(1, cacheSize/4),
		})
		if err != nil {
			return nil, fmt.Errorf("service: opening verdict store: %w", err)
		}
		if len(live) > cacheSize {
			live = live[len(live)-cacheSize:]
		}
		// The store hands back canonical verdict bytes and the cache
		// holds exactly those: replay installs them as they are — no
		// decode, no encode, one allocation for every entry — and
		// certified verdicts replay with their certificate, so a
		// restarted authority serves quorum certificates as cache hits,
		// same as plain verdicts.
		entries := make([]cacheEntry, len(live))
		for i := range live {
			e := &entries[i]
			e.verdict, e.cert, e.accepted = live[i].Verdict, live[i].Cert, live[i].Accepted
			s.cache.put(live[i].Key, e, false)
		}
		s.store = vs
		// Count what survived, not what was offered: capacity splits
		// per shard, so hash skew near capacity can evict some replayed
		// entries during the replay itself. Reporting the cache's
		// actual population keeps "replayed == N implies N hits" true.
		s.replayed = uint64(s.cache.Len())
	}
	if s.auditRate > 0 {
		// One auditor goroutine, a small buffered queue: auditing is a
		// sampled background activity, and shedding samples under load is
		// fine — every record the queue drops is one a later exchange can
		// sample again.
		s.audits = make(chan store.Record, 64)
		s.auditWG.Add(1)
		go s.auditor()
	}
	return s, nil
}

// signerID is the party ID of an optional key (empty for nil).
func signerID(k *identity.KeyPair) identity.PartyID {
	if k == nil {
		return ""
	}
	return k.ID()
}

// ID returns the verifier identity this service answers as.
func (s *Service) ID() string { return s.id }

// Formats lists the proof formats this service can check.
func (s *Service) Formats() []string { return s.procs.Formats() }

// Stats returns a point-in-time snapshot of the service counters.
func (s *Service) Stats() Stats {
	st := s.metrics.snapshot(s.cache.ShardLens(), len(s.cache.shards), s.workers)
	if s.store != nil {
		ps := s.store.Stats()
		// The store counts what it recovered from disk; the operator
		// cares about what the warm start handed back. Report the
		// records that actually entered the cache, so replayed == N
		// really does imply those N announcements are hits.
		ps.Replayed = s.replayed
		st.Persistence = &ps
	}
	if s.fed != nil {
		st.Federation = s.fed.snapshot()
	}
	if s.trust != nil {
		// The trust policy's view joins the federation section even when
		// no delta has crossed the wire yet: a quarantine loaded from the
		// persisted state file must be visible before (and without) any
		// sync traffic, or a restart would hide exactly the peers it is
		// refusing.
		if st.Federation == nil {
			st.Federation = &FederationStats{}
		}
		if st.Federation.Peers == nil {
			st.Federation.Peers = make(map[string]PeerSyncStats)
		}
		for _, ts := range s.trust.Snapshot() {
			p := st.Federation.Peers[ts.Peer]
			p.Refutations = ts.Refutations
			p.Reputation = ts.Reputation
			p.State = string(ts.State)
			st.Federation.Peers[ts.Peer] = p
		}
		for id, p := range st.Federation.Peers {
			if p.State == "" {
				ts := s.trust.Status(id)
				p.Refutations, p.Reputation, p.State = ts.Refutations, ts.Reputation, string(ts.State)
				st.Federation.Peers[id] = p
			}
		}
		st.Federation.RejectedQuarantined = s.metrics.rejectedQuarantined.Load()
		st.Federation.Quarantined = s.trust.Quarantined()
	}
	if s.admission != nil {
		st.Admission = s.admission.snapshot()
	}
	if g := s.gossiper.Load(); g != nil {
		gs := g.Stats()
		st.Gossip = &gs
	}
	return st
}

// Verify checks one verification request. Unintelligible-but-parseable
// inputs come back as rejection verdicts, so the agent still gets a
// verdict to vote on; an error means no verdict was produced at all (unknown format, cancelled
// context, closed service).
func (s *Service) Verify(ctx context.Context, req core.VerifyRequest) (*core.Verdict, error) {
	e, err := s.verify(ctx, "", req.Format, req.Game, req.Advice, req.Proof)
	if err != nil {
		return nil, err
	}
	return e.decode()
}

// VerifyAnnouncement checks an inventor's announcement and, when the
// service carries a reputation registry, records the verdict against the
// inventor: acceptance as agreement, rejection as a misbehaviour report.
func (s *Service) VerifyAnnouncement(ctx context.Context, ann core.Announcement) (*core.Verdict, error) {
	e, err := s.verify(ctx, ann.InventorID, ann.Format, ann.Game, ann.Advice, ann.Proof)
	if err != nil {
		return nil, err
	}
	return e.decode()
}

// closing reports whether Close has flagged the service; in-flight work
// may still be draining.
func (s *Service) closing() bool { return s.state.Load()&stateClosed != 0 }

// Close drains the service: it refuses new requests, waits for in-flight
// ones to finish, then stops the auditor and closes the store. Close is
// idempotent, and every Close call — first or concurrent — returns only
// after the drain and teardown are complete.
func (s *Service) Close() error {
	for {
		n := s.state.Load()
		if n&stateClosed != 0 {
			break // another Close already flagged the service
		}
		if s.state.CompareAndSwap(n, n|stateClosed) {
			if n == 0 {
				close(s.drained) // nothing in flight: drained already
			}
			break
		}
	}
	<-s.drained
	s.shutdown.Do(func() {
		if s.audits != nil {
			// The auditor appends repairs to the store, so it must drain
			// before the store does.
			close(s.audits)
			s.auditWG.Wait()
		}
		if s.store != nil {
			// Every request has drained, so no Append can race this: the
			// store drains its queue, syncs, and releases its files.
			s.storeErr = s.store.Close()
		}
	})
	return s.storeErr
}

// acquire registers one in-flight request, refusing after Close. The
// closed check and the count increment are one CAS on the packed state
// word, so admission costs no mutex and Close cannot slip between them.
func (s *Service) acquire() error {
	for {
		n := s.state.Load()
		if n&stateClosed != 0 {
			return ErrServiceClosed
		}
		if s.state.CompareAndSwap(n, n+1) {
			return nil
		}
	}
}

// release undoes acquire; the last in-flight request of a closed service
// completes the drain. (Once the closed bit is set no acquire succeeds,
// so the count only falls and crosses zero exactly once.)
func (s *Service) release() {
	if s.state.Add(^uint64(0)) == stateClosed {
		close(s.drained)
	}
}

// verify is the single-request path: drain registration, then
// verifyRegistered. It returns the cache entry — the verdict's canonical
// bytes — which the wire reply splices and in-process callers decode.
func (s *Service) verify(ctx context.Context, inventorID, format string, gameSpec, advice, proofBody json.RawMessage) (*cacheEntry, error) {
	if s.admission != nil {
		// Admission refusals happen before the request is counted at all:
		// Requests (and the hit/miss partition under it) keeps meaning
		// admitted verifications, and sheds are visible in Stats.Admission.
		if err := s.admission.admit(ClassInteractive, 1); err != nil {
			return nil, err
		}
	}
	if err := s.acquire(); err != nil {
		// Refusals count only as failures: Requests is single-sourced in
		// metrics.begin and counts admitted verifications, so the
		// CacheHits + CacheMisses == Requests invariant stays exact.
		s.metrics.failures.Add(1)
		return nil, ErrServiceClosed
	}
	defer s.release()
	return s.verifyRegistered(ctx, inventorID, format, gameSpec, advice, proofBody)
}

// verifyRegistered does cache lookup, then a singleflight execution, then
// reputation recording, and returns the verdict's cache entry. The caller
// must already hold an in-flight registration (directly or through a
// stream), which keeps the store open until the request completes even
// during a drain. A singleflight leader runs the procedure on its own
// goroutine, holding a slot only while the procedure runs; followers wait
// holding nothing.
//
// A cache hit takes no mutex and copies nothing: metrics and admission
// are atomic, the shard read path is lock-free (sync.Map load plus an
// atomic recency stamp), and the entry it finds is immutable — the
// caller splices its bytes or decodes its own copy.
func (s *Service) verifyRegistered(ctx context.Context, inventorID, format string, gameSpec, advice, proofBody json.RawMessage) (*cacheEntry, error) {
	start := s.metrics.begin()
	defer s.metrics.end(start)

	key := identity.DigestBytes([]byte(format), gameSpec, advice, proofBody)
	if e, ok := s.cache.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		s.countVerdict(e.accepted)
		return e, nil
	}
	s.metrics.cacheMisses.Add(1)

	// fresh is the leader's own verdict, read only for its reputation
	// record; followers share the entry.
	var fresh *core.Verdict
	e, shared, err := s.flight.Do(ctx, key, func() (e *cacheEntry, err error) {
		e, fresh, err = s.executeFresh(ctx, key, format, gameSpec, advice, proofBody)
		return e, err
	})
	if err != nil {
		s.metrics.failures.Add(1)
		return nil, err
	}
	if shared {
		s.metrics.deduplicated.Add(1)
	}
	s.countVerdict(e.accepted)
	// Reputation is recorded once per fresh verification — cached repeats
	// and singleflight followers do not re-record, so flooding a verifier
	// with one announcement cannot inflate (or deflate) an inventor's
	// standing or grow the audit log.
	if !shared {
		s.recordReputation(inventorID, fresh)
	}
	return e, nil
}

// executeFresh runs one verification on the calling goroutine and caches
// the verdict, returning its entry and the verdict itself.
func (s *Service) executeFresh(ctx context.Context, key identity.Hash, format string, gameSpec, advice, proofBody json.RawMessage) (*cacheEntry, *core.Verdict, error) {
	v, err := s.execute(ctx, format, gameSpec, advice, proofBody)
	if err != nil {
		return nil, nil, err
	}
	e := s.cache.Put(key, *v)
	if s.store != nil {
		// Durability is asynchronous: one non-blocking channel send
		// hands the fresh verdict to the store's flusher. A full
		// queue drops the record (restart warmth is best-effort) —
		// the verification path never waits on a disk. The request
		// rides along so any future auditor (here or on a peer) can
		// re-run the verification from the log alone.
		req, _ := json.Marshal(core.VerifyRequest{
			Format: format, Game: gameSpec, Advice: advice, Proof: proofBody,
		})
		s.store.Append(key, *v, req)
		// A fresh verdict is exactly what rumor-mongering exists for:
		// push it through the next gossip exchanges instead of waiting
		// for a fingerprint mismatch to surface it.
		s.noteRumor(key)
	}
	return e, v, nil
}

// execute resolves the procedure and runs it holding one slot, translating
// procedure errors (unintelligible inputs) into rejection verdicts carrying
// the reason. ctx guards only the wait for a slot: a procedure that has
// started runs to completion (singleflight followers depend on it).
func (s *Service) execute(ctx context.Context, format string, gameSpec, advice, proofBody json.RawMessage) (*core.Verdict, error) {
	proc, err := s.procs.Lookup(format)
	if err != nil {
		return nil, err
	}
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	v, err := proc.Verify(gameSpec, advice, proofBody)
	<-s.slots
	if err != nil {
		v = &core.Verdict{Format: format, Reason: err.Error()}
	}
	return v, nil
}

// countVerdict updates the accepted/rejected counters for one delivered
// verdict (fresh, shared, or cached).
func (s *Service) countVerdict(accepted bool) {
	if accepted {
		s.metrics.accepted.Add(1)
	} else {
		s.metrics.rejected.Add(1)
	}
}

// maybeAudit samples one just-ingested foreign record for background
// re-verification. Own records and records without a persisted request
// are never audited (nothing to re-run, or nothing to learn); the queue
// send is non-blocking, so a saturated auditor sheds samples instead of
// stalling the anti-entropy path that feeds it.
func (s *Service) maybeAudit(r *store.Record) {
	if s.audits == nil || r.Origin == "" || r.Origin == s.origin || len(r.Request) == 0 {
		return
	}
	if s.auditRate < 1 {
		s.rngMu.Lock()
		skip := s.rng.Float64() >= s.auditRate
		s.rngMu.Unlock()
		if skip {
			return
		}
	}
	select {
	case s.audits <- *r:
	default:
		s.metrics.auditsShed.Add(1)
	}
}

// auditor is the background re-verifier: it drains sampled ingested
// records and re-runs each one's persisted request locally.
func (s *Service) auditor() {
	defer s.auditWG.Done()
	for r := range s.audits {
		s.auditRecord(&r)
	}
}

// auditRecord re-executes one ingested record's request through the local
// procedure registry. Verification procedures are deterministic, so the
// local verdict is ground truth: agreement credits the vouching peer
// through the trust policy, contradiction is a proven lie — the peer is
// charged with the evidence, and the record is repaired in place (cache
// and log) with the locally computed verdict under this authority's own
// origin, so the correction federates onward instead of the lie.
func (s *Service) auditRecord(r *store.Record) {
	var req core.VerifyRequest
	if err := json.Unmarshal(r.Request, &req); err != nil {
		return // an unparseable request proves nothing either way
	}
	v, err := s.execute(context.Background(), req.Format, req.Game, req.Advice, req.Proof)
	if err != nil {
		return // unknown format: this authority cannot audit the record
	}
	// Counted when the audit has fully completed — charge and repair
	// included — so the counter doubles as a drain signal.
	defer s.metrics.audits.Add(1)
	if v.Accepted == r.Verdict.Accepted {
		if s.trust != nil {
			s.trust.Credit(string(r.Origin))
		}
		return
	}
	if s.trust != nil {
		s.trust.Charge(string(r.Origin), fmt.Sprintf(
			"audit: record %x: peer %s vouched accepted=%v, local re-verification says accepted=%v",
			r.Key[:4], r.Origin, r.Verdict.Accepted, v.Accepted))
	}
	s.cache.Put(r.Key, *v)
	if s.store != nil && s.store.Append(r.Key, *v, r.Request) {
		s.announce(r.Key)
	}
	s.metrics.auditRefutations.Add(1)
}

// recordReputation files the verdict against the inventor when a registry
// is attached: acceptance as agreement, rejection as an evidenced
// misbehaviour report.
func (s *Service) recordReputation(inventorID string, v *core.Verdict) {
	if s.rep == nil || inventorID == "" {
		return
	}
	if v.Accepted {
		s.rep.ReportAgreement(inventorID, true)
	} else {
		s.rep.ReportMisbehaviour(inventorID,
			fmt.Sprintf("service %s: %s proof rejected: %s", s.id, v.Format, v.Reason))
	}
}
