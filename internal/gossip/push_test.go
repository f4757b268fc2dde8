package gossip

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"rationality/internal/identity"
	"rationality/internal/transport"
)

// waitPushes waits until the fabric has recorded n push exchanges.
func waitPushes(t *testing.T, f *fakeFabric, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(f.pushLog()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d pushes: %+v", n, f.pushLog())
		}
		time.Sleep(time.Millisecond)
	}
}

// pushedTo returns the sorted addresses the recorded pushes went to.
func pushedTo(f *fakeFabric) []string {
	var out []string
	for _, x := range f.pushLog() {
		out = append(out, x.addr)
	}
	sort.Strings(out)
	return out
}

// A push goes to exactly the peers that hold an open client, are not
// backing off and are not vetoed: before any round opened a client it
// goes nowhere, and afterwards a failed (backing-off, client released)
// peer and a vetoed one get nothing.
func TestPushReachesEligiblePeersOnly(t *testing.T) {
	f := newFakeFabric()
	for _, p := range []string{"p1", "p2", "p3", "p4"} {
		f.signers[p] = identity.PartyID("signer-" + p)
	}
	e := newTestEngine(t, f, func(c *Config) {
		c.Fanout = 4
		c.Interval = time.Hour // a real backoff window; the loop is never started
		c.Permitted = func(s identity.PartyID) bool { return s != "signer-p2" }
	})
	e.Push(identity.Hash{1})
	if err := e.Round(context.Background()); err != nil { // opens p1, p3, p4; p2 is vetoed once known
		t.Fatal(err)
	}
	if got := f.pushLog(); len(got) != 0 {
		t.Fatalf("a push before any client was open went out: %+v", got)
	}
	f.setFail("p3", true)
	if err := e.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p := peerStats(t, e, "p3"); p.Backoff == 0 {
		t.Fatalf("test premise: p3 not backing off: %+v", p)
	}

	e.Push(identity.Hash{2})
	waitPushes(t, f, 2)
	e.Stop() // joins the pushes
	if got := pushedTo(f); len(got) != 2 || got[0] != "p1" || got[1] != "p4" {
		t.Fatalf("pushed to %v, want [p1 p4]", got)
	}
	for _, x := range f.pushLog() {
		if x.rumors != 1 || x.full {
			t.Fatalf("push carried %+v, want the one key", x)
		}
	}
}

// Past the fanout a push goes to Fanout of the eligible peers, and the
// draw leaves round selection alone.
func TestPushPastFanoutReachesFanoutPeers(t *testing.T) {
	f := newFakeFabric()
	e := newTestEngine(t, f, nil) // 4 peers, fanout 2
	roundsUntil(t, e, "a client to every peer", func() bool {
		for _, p := range e.Stats().Peers {
			if p.Attempts == 0 {
				return false
			}
		}
		return true
	})
	e.Push(identity.Hash{1})
	waitPushes(t, f, 2)
	e.Stop()
	if got := pushedTo(f); len(got) != 2 || got[0] == got[1] {
		t.Fatalf("pushed to %v, want 2 distinct peers", got)
	}
}

// One push in flight per peer: keys pushed while it is held batch into a
// single follow-up call when it returns.
func TestPushBatchesKeysBehindInFlightPush(t *testing.T) {
	f := newFakeFabric()
	held, release := make(chan struct{}), make(chan struct{})
	f.onExch = func(_ string, req Request) {
		if req.Push && req.Rumors[0] == (identity.Hash{0xff}) {
			close(held)
			<-release
		}
	}
	e := newTestEngine(t, f, func(c *Config) { c.Peers, c.Fanout = []string{"p1"}, 1 })
	if err := e.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.Push(identity.Hash{0xff})
	<-held
	const n = 5
	for i := 0; i < n; i++ {
		e.Push(identity.Hash{byte(i)})
	}
	close(release)
	waitPushes(t, f, 2)
	e.Stop()
	got := f.pushLog()
	if len(got) != 2 || got[0].rumors != 1 || got[1].rumors != n {
		t.Fatalf("pushes %+v, want the held one then one batch of %d", got, n)
	}
}

// A failed push is dropped, not charged: the peer stays healthy with no
// failure on record. A successful one adds what the peer applied to the
// peer's sent counter.
func TestPushFailureLeavesBreakerAlone(t *testing.T) {
	f := newFakeFabric()
	e := newTestEngine(t, f, func(c *Config) {
		c.Peers, c.Fanout, c.Interval = []string{"p1"}, 1, time.Hour
	})
	if err := e.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.setFail("p1", true)
	e.Push(identity.Hash{1})
	waitPushes(t, f, 1)
	f.setFail("p1", false)
	f.mu.Lock()
	f.results["p1"] = Result{Sent: 1}
	f.mu.Unlock()
	e.Push(identity.Hash{2})
	waitPushes(t, f, 2)
	e.Stop()
	p := peerStats(t, e, "p1")
	if p.State != Healthy || p.ConsecutiveFailures != 0 || p.Failed != 0 || p.Backoff != 0 {
		t.Fatalf("a failed push moved the breaker: %+v", p)
	}
	if p.Attempts != 1 || p.RecordsSent != 1 {
		t.Fatalf("attempts=%d recordsSent=%d, want the one round and the one applied push", p.Attempts, p.RecordsSent)
	}
}

// Stop cancels an in-flight push and waits for it: no push goroutine
// outlives Stop.
func TestStopCancelsInFlightPush(t *testing.T) {
	f := newFakeFabric()
	started, ended := make(chan struct{}), make(chan error, 1)
	e := newTestEngine(t, f, func(c *Config) {
		c.Peers, c.Fanout = []string{"p1"}, 1
		c.Exchange = func(ctx context.Context, peer transport.Client, req Request) (Result, error) {
			if !req.Push {
				return f.exchange(ctx, peer, req)
			}
			close(started)
			<-ctx.Done()
			ended <- ctx.Err()
			return Result{}, ctx.Err()
		}
	})
	if err := e.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.Push(identity.Hash{1})
	<-started
	stopped := make(chan struct{})
	go func() { e.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return with a push in flight")
	}
	select {
	case err := <-ended:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("push ended with %v, want context.Canceled", err)
		}
	default:
		t.Fatal("Stop returned before the in-flight push ended")
	}
	e.Push(identity.Hash{2}) // after Stop: a no-op, not a panic or a leak
}
