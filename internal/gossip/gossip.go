// Package gossip implements the replication round loop: the one engine
// every federated authority runs. Each round a node picks a random
// fan-out of eligible peers and runs one exchange with each. With more
// peers than fan-out that is epidemic push-pull — a compact store
// fingerprint (and any hot "rumor" records riding along), reconciled
// fully only on disagreement — so an update reaches all n nodes in
// O(log n) rounds with high probability (the standard epidemic analysis;
// see Aspnes's distributed-systems notes in PAPERS.md) at k·n exchanges
// per round; with fan-out covering every peer the same loop is the
// classic all-pairs pass. Beside the rounds, Push sends a just-written
// record to the peers at once; the rounds stay the anti-entropy backstop
// that delivers whatever a push did not.
//
// The engine is deliberately policy-free: it owns round cadence, peer
// selection, per-peer failure handling (exponential backoff and a
// circuit breaker, so a dead peer costs one dial per backoff window, not
// one per tick), rumor TTLs and statistics, and delegates the exchange
// itself to an injected callback — the service layer supplies one that
// routes every transferred record through its signed federation gate, so
// replication inherits allowlisting, quarantine and audit sampling
// unchanged. (The service package imports this one; the callback keeps
// the dependency one-directional.)
package gossip

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rationality/internal/identity"
	"rationality/internal/transport"
)

// Engine defaults, applied by New for zero Config fields.
const (
	// DefaultFanout is how many peers one round exchanges with.
	DefaultFanout = 2
	// DefaultRumorTTL is how many successful exchanges a fresh record is
	// eagerly pushed through before demotion to anti-entropy repair.
	DefaultRumorTTL = 3
	// DefaultAntiEntropyEvery forces a full manifest reconciliation every
	// Nth round even when fingerprints agree — the repair backstop against
	// fingerprint collisions and half-open partitions.
	DefaultAntiEntropyEvery = 8
	// DefaultTimeout bounds one exchange (dial included).
	DefaultTimeout = time.Minute
	// DefaultJitter is the fraction by which the round cadence and every
	// backoff window are randomized.
	DefaultJitter = 0.2
	// DefaultBackoffMax caps the per-peer exponential backoff.
	DefaultBackoffMax = 5 * time.Minute
	// DefaultBreakerThreshold is the consecutive-failure count that opens
	// a peer's circuit. It is fixed: no Config field overrides it.
	DefaultBreakerThreshold = 3
)

// Peer breaker states, as reported in PeerStats.State: healthy (last
// attempt succeeded), degraded (failing, backing off) and open (the
// breaker tripped at DefaultBreakerThreshold consecutive failures — the
// next due attempt is a half-open probe, and one success closes the
// circuit).
const (
	Healthy  = "healthy"
	Degraded = "degraded"
	Open     = "open"
)

// Request is what the engine asks of one exchange: the hot keys to push
// as rumors, and whether to force a full reconciliation regardless of
// fingerprint agreement.
type Request struct {
	// Rumors are the keys whose records should be pushed eagerly.
	Rumors []identity.Hash
	// Full forces the complete manifest exchange (the anti-entropy
	// backstop round).
	Full bool
	// Push asks for the Rumors' records alone, sent at once outside any
	// round (see Engine.Push); the result's Sent is what the peer applied.
	Push bool
}

// Result is one completed exchange as the injected callback reports it.
type Result struct {
	// Signer is the peer's proven signing identity, learned from the
	// exchange — what quarantine-aware selection keys on. Beside an error
	// it must be one the callback verified (the engine reads a failure
	// that names a vetoed signer as a refusal, not a fault), or empty.
	Signer identity.PartyID
	// InSync reports that the fingerprints matched (after any rumor
	// application) and no reconciliation was needed: a cheap round.
	InSync bool
	// Sent / Received count records transferred in each direction.
	Sent, Received int
	// BytesSent / BytesReceived count the payload bytes of those
	// transfers (framed records plus manifests).
	BytesSent, BytesReceived uint64
}

// ExchangeFunc performs one push-pull exchange with a dialed peer.
type ExchangeFunc func(ctx context.Context, peer transport.Client, req Request) (Result, error)

// Config configures an Engine.
type Config struct {
	// Peers are the addresses eligible as gossip partners. Required,
	// non-empty.
	Peers []string
	// Fanout is how many peers each round exchanges with; zero means
	// DefaultFanout, capped at len(Peers).
	Fanout int
	// Interval is the round cadence for Start; zero means the engine is
	// driven manually through Round (harnesses, tests).
	Interval time.Duration
	// Jitter randomizes the cadence and backoff windows by ±Jitter (0.2 =
	// ±20%), so a fleet restarted together does not exchange in lockstep.
	// Zero means DefaultJitter; negative disables jitter.
	Jitter float64
	// BackoffMax caps the per-peer exponential backoff: after f
	// consecutive failures a peer is not re-attempted until
	// Interval·2^(f−1) (jittered) has passed. Zero means DefaultBackoffMax,
	// raised to Interval if smaller. A manually stepped engine (Interval
	// zero) has no cadence to back off against and retries every round.
	BackoffMax time.Duration
	// RumorTTL is how many successful exchanges each rumor rides; zero
	// means DefaultRumorTTL.
	RumorTTL int
	// AntiEntropyEvery forces a full reconciliation every Nth round; zero
	// means DefaultAntiEntropyEvery, 1 makes every round full, negative
	// disables the backstop.
	AntiEntropyEvery int
	// Timeout bounds one exchange; zero means DefaultTimeout.
	Timeout time.Duration
	// Seed seeds peer selection and jitter; zero uses the clock. The
	// resolved seed is logged and reported in Stats, so any run — chaos
	// tests included — replays exactly from its log line.
	Seed int64
	// Dial opens a client to a peer address. Required.
	Dial func(addr string) (transport.Client, error)
	// Exchange runs one push-pull exchange. Required. Service.StartGossiper
	// supplies it (and Permitted) and refuses a Config that sets either.
	Exchange ExchangeFunc
	// Permitted, when non-nil, vets a peer's proven signing identity
	// before selection: a false answer (e.g. quarantined by the trust
	// policy) skips the peer without dialing, and a failed exchange that
	// names a vetoed signer is this node's own refusal, not a peer fault —
	// it moves neither backoff nor breaker.
	Permitted func(signer identity.PartyID) bool
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// OnRound, when non-nil, observes every completed round with whether
	// at least one exchange succeeded — the readiness-gate hook.
	OnRound func(exchanged bool)
}

// peerState is one peer's engine-side state, guarded by Engine.mu.
type peerState struct {
	addr   string
	client transport.Client
	signer identity.PartyID
	state  string
	// failures counts consecutive failures (reset on success); next is
	// the earliest time the peer is due another attempt.
	failures int
	next     time.Time

	// pending holds keys to push once the in-flight push (pushing) is done.
	pending []identity.Hash
	pushing bool

	attempts          uint64
	failed            uint64
	sent              uint64
	received          uint64
	skippedBackoff    uint64
	skippedQuarantine uint64
}

// Engine runs gossip rounds. Build with New; drive with Round, or Start
// the background loop and Stop it on shutdown.
type Engine struct {
	cfg  Config
	seed int64

	// roundMu serializes rounds (the loop and manual Round callers);
	// mu guards the mutable state below and is never held across an
	// exchange.
	roundMu sync.Mutex
	mu      sync.Mutex
	rng     *rand.Rand
	pushRng *rand.Rand // push targets: apart from rng, so rounds replay unchanged
	peers   []*peerState
	board   map[identity.Hash]int // rumor key -> remaining TTL
	rounds  uint64
	exchgs  uint64
	fails   uint64
	inSync  uint64
	sent    uint64
	recvd   uint64
	bytesTx uint64
	bytesRx uint64

	ctx     context.Context
	cancel  context.CancelFunc
	pushes  sync.WaitGroup // pushTo goroutines, joined by Stop
	exited  chan struct{}
	start   sync.Once
	stop    sync.Once
	looping bool // Start launched the loop goroutine
}

// New validates the configuration and builds an idle engine: no goroutine
// runs until Start, and Round can be called directly for manually stepped
// harnesses.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("gossip: engine needs at least one peer address")
	}
	if cfg.Dial == nil || cfg.Exchange == nil {
		return nil, errors.New("gossip: engine needs Dial and Exchange")
	}
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("gossip: negative interval %s", cfg.Interval)
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = DefaultFanout
	}
	if cfg.Fanout > len(cfg.Peers) {
		cfg.Fanout = len(cfg.Peers)
	}
	if cfg.RumorTTL <= 0 {
		cfg.RumorTTL = DefaultRumorTTL
	}
	switch {
	case cfg.AntiEntropyEvery == 0:
		cfg.AntiEntropyEvery = DefaultAntiEntropyEvery
	case cfg.AntiEntropyEvery < 0:
		cfg.AntiEntropyEvery = 0 // no backstop
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	switch {
	case cfg.Jitter == 0:
		cfg.Jitter = DefaultJitter
	case cfg.Jitter < 0:
		cfg.Jitter = 0
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.BackoffMax < cfg.Interval {
		cfg.BackoffMax = cfg.Interval
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:     cfg,
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		pushRng: rand.New(rand.NewSource(^seed)),
		board:   make(map[identity.Hash]int),
		ctx:     ctx,
		cancel:  cancel,
		exited:  make(chan struct{}),
	}
	for _, addr := range cfg.Peers {
		e.peers = append(e.peers, &peerState{addr: addr, state: Healthy})
	}
	// The seed line is what makes a chaos failure replayable: re-run with
	// Config.Seed set to the logged value and the same peer selections,
	// jitter and fault plans come back.
	cfg.Logf("gossip: fanout=%d rumor-ttl=%d anti-entropy-every=%d seed=%d",
		cfg.Fanout, cfg.RumorTTL, cfg.AntiEntropyEvery, seed)
	return e, nil
}

// Seed reports the resolved selection/jitter seed (the logged value).
func (e *Engine) Seed() int64 { return e.seed }

// AddRumor marks a key hot: its record is pushed eagerly on the next
// RumorTTL successful exchanges. Safe from any goroutine; re-adding a
// key refreshes its TTL.
func (e *Engine) AddRumor(key identity.Hash) {
	e.mu.Lock()
	e.board[key] = e.cfg.RumorTTL
	e.mu.Unlock()
}

// Start launches the background round loop: one round immediately, then
// one per jittered interval until Stop. It is an error to Start an
// engine configured without an Interval (a manually stepped one).
func (e *Engine) Start() error {
	if e.cfg.Interval <= 0 {
		return errors.New("gossip: Start needs Config.Interval (zero means manual Round stepping)")
	}
	e.start.Do(func() {
		if e.ctx.Err() != nil {
			return // already stopped; never launch
		}
		e.mu.Lock()
		e.looping = true
		e.mu.Unlock()
		go e.run()
	})
	return nil
}

// Push sends key's record to peers at once instead of waiting for a
// round: to every peer that is permitted, not backing off and already
// holds an open client, or past the fanout to Fanout of them drawn at
// random. Each peer has at most one push in flight; keys pushed meanwhile
// batch into the next one when it returns. A failed push drops its keys
// to the periodic round and moves neither backoff nor breaker. Safe from
// any goroutine; a no-op once Stop has begun.
func (e *Engine) Push(key identity.Hash) {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ctx.Err() != nil {
		return
	}
	var targets []*peerState
	for _, p := range e.peers {
		if p.client != nil && !now.Before(p.next) && !e.vetoed(p.signer) {
			targets = append(targets, p)
		}
	}
	if len(targets) > e.cfg.Fanout {
		e.pushRng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
		targets = targets[:e.cfg.Fanout]
	}
	for _, p := range targets {
		p.pending = append(p.pending, key)
		if !p.pushing {
			p.pushing = true
			e.pushes.Add(1)
			go e.pushTo(p)
		}
	}
}

// pushTo sends one peer its pending keys, one push at a time, until none
// are left (or the peer lost its client, or Stop began).
func (e *Engine) pushTo(p *peerState) {
	defer e.pushes.Done()
	for {
		e.mu.Lock()
		keys, client := p.pending, p.client
		p.pending = nil
		if len(keys) == 0 || client == nil || e.ctx.Err() != nil {
			p.pushing = false
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
		ctx, cancel := context.WithTimeout(e.ctx, e.cfg.Timeout)
		res, err := e.cfg.Exchange(ctx, client, Request{Rumors: keys, Push: true})
		cancel()
		if err == nil {
			e.mu.Lock()
			p.sent += uint64(res.Sent)
			e.sent += uint64(res.Sent)
			e.mu.Unlock()
		}
	}
}

// Stop halts the loop, cancels any in-flight exchange or push, and closes
// the peer clients. Safe to call more than once, and valid for manually
// stepped engines too (it releases the clients Round dialed).
func (e *Engine) Stop() {
	e.stop.Do(func() {
		e.cancel()
		// Push starts goroutines under e.mu only while e.ctx is live, so
		// once this lock is taken none can start and Wait is safe.
		e.mu.Lock()
		looping := e.looping
		e.mu.Unlock()
		if looping {
			<-e.exited
		}
		e.pushes.Wait()
		// Serialize with any in-flight manual Round, then release clients.
		e.roundMu.Lock()
		defer e.roundMu.Unlock()
		e.mu.Lock()
		defer e.mu.Unlock()
		for _, p := range e.peers {
			if p.client != nil {
				_ = p.client.Close()
				p.client = nil
			}
		}
	})
}

// run is the loop goroutine.
func (e *Engine) run() {
	defer close(e.exited)
	_ = e.Round(e.ctx)
	for {
		e.mu.Lock()
		d := e.jitterLocked(e.cfg.Interval)
		e.mu.Unlock()
		timer := time.NewTimer(d)
		select {
		case <-e.ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
		if err := e.Round(e.ctx); err != nil && e.ctx.Err() == nil {
			e.cfg.Logf("gossip: round: %v", err)
		}
	}
}

// Round runs one round: pick Fanout random eligible peers (not backing
// off, not quarantined), exchange with each (rumors pushed, fingerprints
// probed, reconciliation when they disagree or the anti-entropy backstop
// is due), then age the rumor board by the number of successful
// exchanges. Rounds serialize; concurrent callers queue. The error is the
// context's, never a peer's — peer failures are counted, logged, backed
// off from and survived.
func (e *Engine) Round(ctx context.Context) error {
	e.roundMu.Lock()
	defer e.roundMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}

	e.mu.Lock()
	e.rounds++
	full := e.cfg.AntiEntropyEvery > 0 && e.rounds%uint64(e.cfg.AntiEntropyEvery) == 0
	partners := e.selectLocked(time.Now())
	rumors := make([]identity.Hash, 0, len(e.board))
	for k := range e.board {
		rumors = append(rumors, k)
	}
	e.mu.Unlock()

	succeeded := 0
	for _, p := range partners {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if e.exchangeWith(ctx, p, Request{Rumors: rumors, Full: full}) {
			succeeded++
		}
	}

	e.mu.Lock()
	if succeeded > 0 {
		for _, k := range rumors {
			if ttl, ok := e.board[k]; ok {
				if ttl -= succeeded; ttl <= 0 {
					delete(e.board, k)
				} else {
					e.board[k] = ttl
				}
			}
		}
	}
	e.mu.Unlock()
	if e.cfg.OnRound != nil {
		e.cfg.OnRound(succeeded > 0)
	}
	return nil
}

// selectLocked picks this round's partners: a seeded shuffle of the peer
// list, keeping the first Fanout peers that are due an attempt — not
// inside a backoff window, and not vetoed by the Permitted hook on their
// proven identity. A skipped peer's slot goes to the next one in the
// shuffle, so with more peers than fanout a dead or quarantined partner
// does not cost the round an exchange. Peers with no proven identity yet
// are always eligible — their first exchange is what proves it, and the
// service-side federation gate refuses their data regardless if they
// turn out quarantined. Callers hold e.mu.
func (e *Engine) selectLocked(now time.Time) []*peerState {
	picked := make([]*peerState, 0, e.cfg.Fanout)
	for _, i := range e.rng.Perm(len(e.peers)) {
		if len(picked) == e.cfg.Fanout {
			break
		}
		p := e.peers[i]
		switch {
		case now.Before(p.next):
			p.skippedBackoff++
		case e.vetoed(p.signer):
			p.skippedQuarantine++
		default:
			picked = append(picked, p)
		}
	}
	return picked
}

// vetoed reports whether the Permitted hook refuses a proven signer; an
// unknown one is never vetoed.
func (e *Engine) vetoed(signer identity.PartyID) bool {
	return signer != "" && e.cfg.Permitted != nil && !e.cfg.Permitted(signer)
}

// exchangeWith runs one peer's exchange and folds the result into the
// counters and the peer's breaker state.
func (e *Engine) exchangeWith(ctx context.Context, p *peerState, req Request) bool {
	e.mu.Lock()
	p.attempts++
	client := p.client
	e.mu.Unlock()
	if client == nil {
		c, err := e.cfg.Dial(p.addr)
		if err != nil {
			e.cfg.Logf("gossip: %s unreachable: %v", p.addr, err)
			e.noteFailure(p, nil)
			return false
		}
		e.mu.Lock()
		p.client = c
		e.mu.Unlock()
		client = c
	}
	exCtx, cancel := context.WithTimeout(ctx, e.cfg.Timeout)
	res, err := e.cfg.Exchange(exCtx, client, req)
	cancel()
	if res.Signer != "" {
		e.mu.Lock()
		p.signer = res.Signer
		e.mu.Unlock()
	}
	if err != nil {
		if ctx.Err() != nil {
			return false // shutdown mid-exchange: not a peer failure
		}
		e.cfg.Logf("gossip: exchange with %s: %v", p.addr, err)
		if e.vetoed(res.Signer) {
			// A deliberate refusal by this node's own policy, not a peer
			// fault: no backoff, no breaker — the selection skip takes over
			// now that the signer is known.
			e.mu.Lock()
			p.skippedQuarantine++
			e.mu.Unlock()
			return false
		}
		e.noteFailure(p, client)
		return false
	}
	e.mu.Lock()
	recovered := p.state == Open
	p.state = Healthy
	p.failures = 0
	p.next = time.Time{}
	p.sent += uint64(res.Sent)
	p.received += uint64(res.Received)
	e.exchgs++
	e.sent += uint64(res.Sent)
	e.recvd += uint64(res.Received)
	e.bytesTx += res.BytesSent
	e.bytesRx += res.BytesReceived
	if res.InSync {
		e.inSync++
	}
	e.mu.Unlock()
	if recovered {
		e.cfg.Logf("gossip: circuit closed for %s: probe succeeded", p.addr)
	}
	if res.Sent > 0 || res.Received > 0 {
		e.cfg.Logf("gossip: exchanged with %s: sent=%d received=%d", p.addr, res.Sent, res.Received)
	}
	return true
}

// noteFailure records one failed attempt: bump the consecutive-failure
// run, schedule the backoff window, trip the breaker at the threshold,
// and release the peer's client so the next due attempt re-dials fresh.
func (e *Engine) noteFailure(p *peerState, client transport.Client) {
	e.mu.Lock()
	p.failures++
	p.failed++
	e.fails++
	window := e.backoffLocked(p.failures)
	p.next = time.Now().Add(window)
	opened := false
	if p.failures >= DefaultBreakerThreshold {
		opened = p.state != Open
		p.state = Open
	} else {
		p.state = Degraded
	}
	failures := p.failures
	if p.client == client && client != nil {
		_ = client.Close()
		p.client = nil
	}
	e.mu.Unlock()
	if opened {
		e.cfg.Logf("gossip: circuit open for %s after %d consecutive failures (next probe in %s)",
			p.addr, failures, window.Round(time.Millisecond))
	}
}

// backoffLocked is the jittered exponential backoff window after f
// consecutive failures: Interval·2^(f-1), capped at BackoffMax. Callers
// hold e.mu.
func (e *Engine) backoffLocked(f int) time.Duration {
	d := e.cfg.Interval
	for i := 1; i < f && d < e.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > e.cfg.BackoffMax {
		d = e.cfg.BackoffMax
	}
	return e.jitterLocked(d)
}

// jitterLocked randomizes a duration by ±cfg.Jitter. Callers hold e.mu.
func (e *Engine) jitterLocked(d time.Duration) time.Duration {
	j := e.cfg.Jitter
	if j <= 0 || d <= 0 {
		return d // no draw: a manually stepped engine's selections replay
	}
	delta := float64(d) * j
	return time.Duration(float64(d) - delta + 2*delta*e.rng.Float64())
}

// Stats is a point-in-time snapshot of the engine's counters, carried in
// the service Stats tree as the "gossip" section.
type Stats struct {
	// Rounds counts completed gossip rounds; Exchanges the successful
	// peer exchanges inside them and Failures the failed ones.
	Rounds    uint64 `json:"rounds"`
	Exchanges uint64 `json:"exchanges"`
	Failures  uint64 `json:"failures,omitempty"`
	// InSync counts exchanges settled by fingerprint agreement alone — a
	// converged federation idles at InSync ≈ Exchanges, which is the
	// convergence signal dashboards watch.
	InSync uint64 `json:"inSync,omitempty"`
	// RecordsSent / RecordsReceived count records pushed to and pulled
	// from peers; BytesSent / BytesReceived the payload bytes moved.
	RecordsSent     uint64 `json:"recordsSent,omitempty"`
	RecordsReceived uint64 `json:"recordsReceived,omitempty"`
	BytesSent       uint64 `json:"bytesSent,omitempty"`
	BytesReceived   uint64 `json:"bytesReceived,omitempty"`
	// RumorsPending is the hot-record board's current population.
	RumorsPending int `json:"rumorsPending,omitempty"`
	// Fanout and Seed echo the engine's resolved configuration; Seed is
	// what replays a run.
	Fanout int   `json:"fanout"`
	Seed   int64 `json:"seed"`
	// Peers is the per-peer view, in configured order.
	Peers []PeerStats `json:"peers,omitempty"`
}

// PeerStats is one peer's replication state: the breaker view an operator
// checks when a peer stops converging.
type PeerStats struct {
	// Address is the configured peer address; Signer the identity its
	// exchanges proved (empty until the first completed exchange).
	Address string           `json:"address"`
	Signer  identity.PartyID `json:"signer,omitempty"`
	// State is the breaker state: healthy, degraded, or open.
	State string `json:"state"`
	// ConsecutiveFailures is the current failure run (zeroed on success);
	// Backoff is how much of the current backoff window remains.
	ConsecutiveFailures int           `json:"consecutiveFailures,omitempty"`
	Backoff             time.Duration `json:"backoff,omitempty"`
	// Attempts counts exchanges actually started and Failed the ones that
	// errored; RecordsSent / RecordsReceived the records moved with this
	// peer.
	Attempts        uint64 `json:"attempts"`
	Failed          uint64 `json:"failed"`
	RecordsSent     uint64 `json:"recordsSent,omitempty"`
	RecordsReceived uint64 `json:"recordsReceived,omitempty"`
	// SkippedBackoff and SkippedQuarantine count selections that passed
	// over the peer without dialing — still inside its backoff window, or
	// its proven identity quarantined by the trust policy.
	SkippedBackoff    uint64 `json:"skippedBackoff,omitempty"`
	SkippedQuarantine uint64 `json:"skippedQuarantine,omitempty"`
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		Rounds:          e.rounds,
		Exchanges:       e.exchgs,
		Failures:        e.fails,
		InSync:          e.inSync,
		RecordsSent:     e.sent,
		RecordsReceived: e.recvd,
		BytesSent:       e.bytesTx,
		BytesReceived:   e.bytesRx,
		RumorsPending:   len(e.board),
		Fanout:          e.cfg.Fanout,
		Seed:            e.seed,
	}
	for _, p := range e.peers {
		ps := PeerStats{
			Address:             p.addr,
			Signer:              p.signer,
			State:               p.state,
			ConsecutiveFailures: p.failures,
			Attempts:            p.attempts,
			Failed:              p.failed,
			RecordsSent:         p.sent,
			RecordsReceived:     p.received,
			SkippedBackoff:      p.skippedBackoff,
			SkippedQuarantine:   p.skippedQuarantine,
		}
		if p.next.After(now) {
			ps.Backoff = p.next.Sub(now)
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}
