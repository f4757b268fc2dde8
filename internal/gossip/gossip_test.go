package gossip

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rationality/internal/identity"
	"rationality/internal/transport"
)

// fakeClient satisfies transport.Client; the engine never calls it
// directly (the fake Exchange does), so it only tracks Close.
type fakeClient struct {
	addr   string
	closed atomic.Bool
}

func (c *fakeClient) Call(context.Context, transport.Message) (transport.Message, error) {
	return transport.Message{}, errors.New("fake client: not a wire client")
}
func (c *fakeClient) Close() error { c.closed.Store(true); return nil }

// fakeFabric is a scriptable Dial+Exchange pair recording everything the
// engine does.
type fakeFabric struct {
	mu        sync.Mutex
	dials     []string
	exchanges []fakeExchange
	fail      map[string]bool                // addr -> next exchange errors
	signers   map[string]identity.PartyID    // addr -> reported signer
	results   map[string]Result              // addr -> result overrides
	onExch    func(addr string, req Request) // optional hook
}

type fakeExchange struct {
	addr   string
	rumors int
	full   bool
	push   bool
}

func newFakeFabric() *fakeFabric {
	return &fakeFabric{
		fail:    make(map[string]bool),
		signers: make(map[string]identity.PartyID),
		results: make(map[string]Result),
	}
}

func (f *fakeFabric) dial(addr string) (transport.Client, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dials = append(f.dials, addr)
	return &fakeClient{addr: addr}, nil
}

func (f *fakeFabric) exchange(_ context.Context, peer transport.Client, req Request) (Result, error) {
	addr := peer.(*fakeClient).addr
	f.mu.Lock()
	f.exchanges = append(f.exchanges, fakeExchange{addr: addr, rumors: len(req.Rumors), full: req.Full, push: req.Push})
	failNow := f.fail[addr]
	res := f.results[addr]
	if s, ok := f.signers[addr]; ok {
		res.Signer = s
	}
	hook := f.onExch
	f.mu.Unlock()
	if hook != nil {
		hook(addr, req)
	}
	if failNow {
		return res, errors.New("injected exchange failure")
	}
	return res, nil
}

func (f *fakeFabric) partnerLog() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, e := range f.exchanges {
		if !e.push {
			out = append(out, e.addr)
		}
	}
	return out
}

// pushLog returns the push exchanges, in call order.
func (f *fakeFabric) pushLog() []fakeExchange {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []fakeExchange
	for _, e := range f.exchanges {
		if e.push {
			out = append(out, e)
		}
	}
	return out
}

func (f *fakeFabric) dialCount(addr string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, d := range f.dials {
		if d == addr {
			n++
		}
	}
	return n
}

func (f *fakeFabric) setFail(addr string, fail bool) {
	f.mu.Lock()
	f.fail[addr] = fail
	f.mu.Unlock()
}

// peerStats returns one peer's row of the engine snapshot.
func peerStats(t *testing.T, e *Engine, addr string) PeerStats {
	t.Helper()
	for _, p := range e.Stats().Peers {
		if p.Address == addr {
			return p
		}
	}
	t.Fatalf("no peer %q in stats", addr)
	return PeerStats{}
}

// roundsUntil steps manual rounds (a millisecond apart, so backoff
// windows can elapse) until cond holds.
func roundsUntil(t *testing.T, e *Engine, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, e.Stats().Peers)
		}
		if err := e.Round(context.Background()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

func newTestEngine(t *testing.T, f *fakeFabric, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := Config{
		Peers:    []string{"p1", "p2", "p3", "p4"},
		Fanout:   2,
		Seed:     42,
		Dial:     f.dial,
		Exchange: f.exchange,
		Logf:     t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

// Same seed, same peers: identical partner sequences across runs. This is
// the reproducibility contract the logged seed promises.
func TestRoundPartnerSelectionIsSeedDeterministic(t *testing.T) {
	runOnce := func() []string {
		f := newFakeFabric()
		e := newTestEngine(t, f, nil)
		for i := 0; i < 5; i++ {
			if err := e.Round(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		return f.partnerLog()
	}
	a, b := runOnce(), runOnce()
	if len(a) != 10 { // 5 rounds × fanout 2
		t.Fatalf("got %d exchanges, want 10: %v", len(a), a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded runs diverged at %d: %v vs %v", i, a, b)
		}
	}
	// And a different seed picks a different sequence (overwhelmingly).
	f := newFakeFabric()
	e := newTestEngine(t, f, func(c *Config) { c.Seed = 43 })
	for i := 0; i < 5; i++ {
		if err := e.Round(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	c := f.partnerLog()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 10-pick sequences")
	}
}

// A peer whose proven identity the Permitted hook vetoes is never picked
// again, and the skip is counted per peer.
func TestRoundSkipsVetoedPeers(t *testing.T) {
	f := newFakeFabric()
	f.signers["p1"] = "signer-1"
	f.signers["p2"] = "signer-2"
	f.signers["p3"] = "signer-3"
	f.signers["p4"] = "signer-4"
	var veto atomic.Bool
	e := newTestEngine(t, f, func(c *Config) {
		c.Permitted = func(s identity.PartyID) bool {
			return !(veto.Load() && s == "signer-2")
		}
	})
	// Warm-up rounds teach the engine every peer's signer.
	for i := 0; i < 8; i++ {
		if err := e.Round(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for _, addr := range f.partnerLog() {
		if addr == "p2" {
			goto learned
		}
	}
	t.Fatal("warm-up never exchanged with p2; can't exercise the veto")
learned:
	veto.Store(true)
	before := len(f.partnerLog())
	dialsBefore := f.dialCount("p2")
	for i := 0; i < 12; i++ {
		if err := e.Round(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for _, addr := range f.partnerLog()[before:] {
		if addr == "p2" {
			t.Fatal("vetoed peer was selected as a gossip partner")
		}
	}
	if got := f.dialCount("p2"); got != dialsBefore {
		t.Fatalf("vetoed peer was dialed (%d -> %d dials)", dialsBefore, got)
	}
	st := e.Stats()
	var skipped uint64
	for _, p := range st.Peers {
		if p.Address == "p2" {
			skipped = p.SkippedQuarantine
		}
	}
	if skipped == 0 {
		t.Fatalf("veto left no SkippedQuarantine trace: %+v", st.Peers)
	}
}

// Rumors ride along for TTL successful exchanges, then drop off the board.
func TestRumorTTLDecrementsPerSuccessfulExchange(t *testing.T) {
	f := newFakeFabric()
	e := newTestEngine(t, f, func(c *Config) {
		c.Peers = []string{"p1"}
		c.Fanout = 1
		c.RumorTTL = 3
	})
	key := identity.DigestBytes([]byte("hot-record"))
	e.AddRumor(key)
	if st := e.Stats(); st.RumorsPending != 1 {
		t.Fatalf("RumorsPending = %d, want 1", st.RumorsPending)
	}
	for i := 0; i < 3; i++ {
		if err := e.Round(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	f.mu.Lock()
	for i, ex := range f.exchanges {
		if ex.rumors != 1 {
			t.Fatalf("exchange %d carried %d rumors, want 1", i, ex.rumors)
		}
	}
	f.mu.Unlock()
	if st := e.Stats(); st.RumorsPending != 0 {
		t.Fatalf("RumorsPending = %d after TTL exhausted, want 0", st.RumorsPending)
	}
	if err := e.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	last := f.exchanges[len(f.exchanges)-1]
	f.mu.Unlock()
	if last.rumors != 0 {
		t.Fatal("expired rumor still rode an exchange")
	}
}

// Failed exchanges do not age rumors: a node that can't reach anyone
// keeps its hot records hot.
func TestRumorSurvivesFailedRounds(t *testing.T) {
	f := newFakeFabric()
	f.fail["p1"] = true
	e := newTestEngine(t, f, func(c *Config) {
		c.Peers = []string{"p1"}
		c.Fanout = 1
		c.RumorTTL = 1
	})
	e.AddRumor(identity.DigestBytes([]byte("stuck")))
	for i := 0; i < 4; i++ {
		if err := e.Round(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.RumorsPending != 1 || st.Failures != 4 {
		t.Fatalf("stats after failed rounds: %+v", st)
	}
	f.mu.Lock()
	f.fail["p1"] = false
	f.mu.Unlock()
	if err := e.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.RumorsPending != 0 {
		t.Fatal("rumor survived its one successful exchange")
	}
}

// Every AntiEntropyEvery-th round is a full reconciliation; the others
// are fingerprint probes.
func TestAntiEntropyCadence(t *testing.T) {
	f := newFakeFabric()
	e := newTestEngine(t, f, func(c *Config) {
		c.Peers = []string{"p1"}
		c.Fanout = 1
		c.AntiEntropyEvery = 3
	})
	for i := 0; i < 7; i++ {
		if err := e.Round(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, ex := range f.exchanges {
		round := i + 1
		if want := round%3 == 0; ex.full != want {
			t.Fatalf("round %d full=%v, want %v", round, ex.full, want)
		}
	}
}

// A failed exchange closes the cached client; the next selection re-dials.
func TestFailureDropsCachedClient(t *testing.T) {
	f := newFakeFabric()
	f.fail["p1"] = true
	e := newTestEngine(t, f, func(c *Config) {
		c.Peers = []string{"p1"}
		c.Fanout = 1
	})
	if err := e.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	f.fail["p1"] = false
	dialsAfterFailure := len(f.dials)
	f.mu.Unlock()
	if err := e.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.dials) != dialsAfterFailure+1 {
		t.Fatalf("dials = %v, want a re-dial after the failure", f.dials)
	}
}

// A dead peer must not be dialed once per tick: the backoff window and
// circuit breaker bound the attempts while rounds keep passing.
func TestDeadPeerBacksOff(t *testing.T) {
	f := newFakeFabric()
	f.fail["p1"] = true
	e := newTestEngine(t, f, func(c *Config) {
		c.Peers = []string{"p1"}
		c.Interval = 2 * time.Millisecond
		c.BackoffMax = 100 * time.Millisecond
		c.Jitter = -1
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p := peerStats(t, e, "p1"); p.State != Open || p.SkippedBackoff < 5; p = peerStats(t, e, "p1") {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened with backoff skips accumulating: %+v", p)
		}
		time.Sleep(time.Millisecond)
	}
	e.Stop()

	p := peerStats(t, e, "p1")
	if p.ConsecutiveFailures < DefaultBreakerThreshold {
		t.Fatalf("ConsecutiveFailures = %d, want >= %d", p.ConsecutiveFailures, DefaultBreakerThreshold)
	}
	if dials := f.dialCount("p1"); p.Attempts != uint64(dials) || p.Failed != p.Attempts {
		t.Fatalf("attempts %d, failed %d, dials %d: every attempt against a dead peer is one failed dial+exchange",
			p.Attempts, p.Failed, dials)
	}
	if p.SkippedBackoff <= p.Attempts {
		t.Fatalf("dial storm: %d attempts vs only %d backoff skips over %d rounds",
			p.Attempts, p.SkippedBackoff, e.Stats().Rounds)
	}
	if p.Backoff <= 0 || p.Backoff > 100*time.Millisecond {
		t.Fatalf("remaining backoff %s, want within (0, BackoffMax]", p.Backoff)
	}
}

// The breaker walks healthy → degraded → open at BreakerThreshold
// consecutive failures, and one successful half-open probe closes it.
func TestBreakerOpensAtThresholdAndProbeCloses(t *testing.T) {
	f := newFakeFabric()
	f.fail["p1"] = true
	e := newTestEngine(t, f, func(c *Config) {
		c.Peers = []string{"p1"}
		c.Interval = 5 * time.Millisecond // the backoff base; rounds are stepped manually
		c.Jitter = -1
	})
	if p := peerStats(t, e, "p1"); p.State != Healthy {
		t.Fatalf("initial state %q, want healthy", p.State)
	}
	for want := 1; want <= DefaultBreakerThreshold; want++ {
		roundsUntil(t, e, "the next due attempt to fail", func() bool {
			return peerStats(t, e, "p1").Failed == uint64(want)
		})
		p := peerStats(t, e, "p1")
		wantState := Degraded
		if want >= DefaultBreakerThreshold {
			wantState = Open
		}
		if p.State != wantState || p.ConsecutiveFailures != want {
			t.Fatalf("after %d failures: state=%s consecutive=%d, want %s/%d",
				want, p.State, p.ConsecutiveFailures, wantState, want)
		}
	}
	f.setFail("p1", false)
	roundsUntil(t, e, "the half-open probe to succeed", func() bool {
		return peerStats(t, e, "p1").State == Healthy
	})
	p := peerStats(t, e, "p1")
	if p.ConsecutiveFailures != 0 || p.Backoff != 0 {
		t.Fatalf("probe success left failure state behind: %+v", p)
	}
	if p.Attempts != uint64(DefaultBreakerThreshold)+1 {
		t.Fatalf("attempts = %d, want %d failures + exactly one probe", p.Attempts, DefaultBreakerThreshold)
	}
}

// With more peers than fanout, a peer inside its backoff window is
// skipped and its slot goes to another partner in the same round.
func TestBackedOffPeerSlotGoesToAnotherPartner(t *testing.T) {
	f := newFakeFabric()
	f.fail["p1"] = true
	e := newTestEngine(t, f, func(c *Config) {
		c.Interval = time.Hour // one failure backs p1 off for the whole test
		c.Jitter = -1
	})
	roundsUntil(t, e, "p1 to be picked and fail", func() bool {
		return peerStats(t, e, "p1").Failed == 1
	})
	for i := 0; i < 20; i++ {
		before := len(f.partnerLog())
		if err := e.Round(context.Background()); err != nil {
			t.Fatal(err)
		}
		partners := f.partnerLog()[before:]
		if len(partners) != 2 || partners[0] == "p1" || partners[1] == "p1" || partners[0] == partners[1] {
			t.Fatalf("round %d partners %v, want two distinct healthy peers", i, partners)
		}
	}
	p := peerStats(t, e, "p1")
	if p.SkippedBackoff == 0 || p.Attempts != 1 {
		t.Fatalf("p1 after 20 rounds in backoff: %+v", p)
	}
}

// A failed exchange that names a signer the Permitted hook vetoes is this
// node's own refusal (a quarantined peer met before its identity was
// known): it counts as a quarantine skip and moves neither backoff nor
// breaker.
func TestRefusalOfVetoedSignerIsNotAPeerFailure(t *testing.T) {
	f := newFakeFabric()
	f.fail["p1"] = true
	f.signers["p1"] = "signer-1"
	e := newTestEngine(t, f, func(c *Config) {
		c.Peers = []string{"p1"}
		c.Interval = time.Hour
		c.Permitted = func(s identity.PartyID) bool { return s != "signer-1" }
	})
	for i := 0; i < 3; i++ {
		if err := e.Round(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	p := peerStats(t, e, "p1")
	if p.State != Healthy || p.Failed != 0 || p.SkippedBackoff != 0 {
		t.Fatalf("own-policy refusal charged to the peer: %+v", p)
	}
	if p.Attempts != 1 || p.SkippedQuarantine != 3 {
		t.Fatalf("attempts=%d skippedQuarantine=%d, want one refused exchange then dial-free skips", p.Attempts, p.SkippedQuarantine)
	}
}

// Start drives rounds on the configured cadence; Stop joins the loop and
// releases clients. Manual engines refuse Start.
func TestStartStopLoop(t *testing.T) {
	f := newFakeFabric()
	rounds := make(chan struct{}, 64)
	e := newTestEngine(t, f, func(c *Config) {
		c.Peers = []string{"p1"}
		c.Fanout = 1
		c.Interval = time.Millisecond
		c.OnRound = func(bool) { rounds <- struct{}{} }
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case <-rounds:
		case <-time.After(5 * time.Second):
			t.Fatal("loop produced no round")
		}
	}
	e.Stop()
	st := e.Stats()
	if st.Rounds < 3 || st.Exchanges < 3 {
		t.Fatalf("stats after loop: %+v", st)
	}

	manual := newTestEngine(t, newFakeFabric(), nil)
	if err := manual.Start(); err == nil {
		t.Fatal("Start on an interval-less engine must fail")
	}
}

// New rejects nonsense configurations.
func TestNewValidates(t *testing.T) {
	f := newFakeFabric()
	if _, err := New(Config{Dial: f.dial, Exchange: f.exchange}); err == nil {
		t.Fatal("no peers must fail")
	}
	if _, err := New(Config{Peers: []string{"p"}}); err == nil {
		t.Fatal("missing Dial/Exchange must fail")
	}
	if _, err := New(Config{Peers: []string{"p"}, Dial: f.dial, Exchange: f.exchange, Interval: -time.Second}); err == nil {
		t.Fatal("negative interval must fail")
	}
	// Fanout larger than the peer set clamps instead of failing.
	e, err := New(Config{Peers: []string{"p"}, Fanout: 9, Dial: f.dial, Exchange: f.exchange})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().Fanout != 1 {
		t.Fatalf("fanout = %d, want clamped to 1", e.Stats().Fanout)
	}
}
