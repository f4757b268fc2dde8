package service

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rationality/internal/gossip"
	"rationality/internal/identity"
	"rationality/internal/store"
	"rationality/internal/transport"
)

// gossipNode is one authority of a gossipCluster.
type gossipNode struct {
	addr string
	svc  *Service
	g    *Gossiper
}

// gossipCluster wires n keyed, mutually allowlisted services over an
// in-memory PipeNet, attaches a manually stepped Gossiper to each (peers:
// everyone else), and records every message type each listener serves.
type gossipCluster struct {
	nodes []*gossipNode

	mu   sync.Mutex
	seen map[string][]string // listener addr -> request types served
}

func newGossipCluster(t *testing.T, n, fanout int) *gossipCluster {
	t.Helper()
	net := transport.NewPipeNet()
	t.Cleanup(func() { _ = net.Close() })
	keys := make([]*identity.KeyPair, n)
	ids := make([]identity.PartyID, n)
	for i := range keys {
		keys[i] = testKeyPair(t)
		ids[i] = keys[i].ID()
	}
	c := &gossipCluster{seen: make(map[string][]string)}
	for i := range keys {
		addr := fmt.Sprintf("node-%d", i)
		svc := newKeyedService(t, addr, keys[i], append(append([]identity.PartyID{}, ids[:i]...), ids[i+1:]...)...)
		record := transport.HandlerFunc(func(ctx context.Context, req transport.Message) (transport.Message, error) {
			c.mu.Lock()
			c.seen[addr] = append(c.seen[addr], req.Type)
			c.mu.Unlock()
			return svc.Handle(ctx, req)
		})
		if _, err := net.Listen(addr, record); err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, &gossipNode{addr: addr, svc: svc})
	}
	dial := func(addr string) (transport.Client, error) { return net.Dial(addr) }
	for i, node := range c.nodes {
		var peers []string
		for j, other := range c.nodes {
			if j != i {
				peers = append(peers, other.addr)
			}
		}
		// No forced-full backstop rounds: the tests count in-sync probes.
		g, err := node.svc.StartGossiper(gossip.Config{
			Peers: peers, Fanout: fanout, AntiEntropyEvery: -1, Seed: int64(i + 1), Dial: dial, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Stop)
		node.g = g
	}
	return c
}

// step runs one lockstep round on every node.
func (c *gossipCluster) step(t *testing.T) {
	t.Helper()
	for _, n := range c.nodes {
		if err := n.g.Round(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// served returns every request type the cluster's listeners have seen.
func (c *gossipCluster) served() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, types := range c.seen {
		out = append(out, types...)
	}
	return out
}

// converged reports whether every node's manifest is identical.
func (c *gossipCluster) converged(t *testing.T) bool {
	t.Helper()
	want := manifestOfService(t, c.nodes[0].svc)
	for _, n := range c.nodes[1:] {
		if !reflect.DeepEqual(want, manifestOfService(t, n.svc)) {
			return false
		}
	}
	return true
}

// partnerOf returns the node behind the one peer n has attempted exactly
// `attempts` exchanges with — how the fanout-1 tests learn whom the
// seeded selection picked.
func (c *gossipCluster) partnerOf(t *testing.T, n *gossipNode, attempts uint64) *gossipNode {
	t.Helper()
	for _, p := range n.g.Stats().Peers {
		if p.Attempts == attempts {
			for _, other := range c.nodes {
				if other.addr == p.Address {
					return other
				}
			}
		}
	}
	t.Fatalf("no peer of %s with %d attempts: %+v", n.addr, attempts, n.g.Stats().Peers)
	return nil
}

// verifyDistinct runs n verifications with payloads unique to prefix, so
// two services seeded with different prefixes hold disjoint records.
func verifyDistinct(t *testing.T, s *Service, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ann := announcementFor("inv", fmt.Sprintf(`{"%s":%d}`, prefix, i))
		if _, err := s.VerifyAnnouncement(context.Background(), ann); err != nil {
			t.Fatal(err)
		}
	}
}

func manifestOfService(t *testing.T, s *Service) map[[32]byte]store.RecordInfo {
	t.Helper()
	m, err := s.store.Manifest(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[[32]byte]store.RecordInfo, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// One push-pull exchange converges a divergent pair in both directions,
// and a converged federation settles into cheap in-sync fingerprint
// probes. Three nodes at fanout 1: more peers than fanout, so the
// exchange is push-pull.
func TestGossipPairConvergesAndIdlesInSync(t *testing.T) {
	c := newGossipCluster(t, 3, 1)
	a := c.nodes[0]
	verifyDistinct(t, a.svc, "a", 4)
	verifyDistinct(t, c.nodes[1].svc, "b", 3)
	verifyDistinct(t, c.nodes[2].svc, "c", 3)
	ctx := context.Background()

	if err := a.g.Round(ctx); err != nil {
		t.Fatal(err)
	}
	partner := c.partnerOf(t, a, 1)
	ma, mp := manifestOfService(t, a.svc), manifestOfService(t, partner.svc)
	if len(ma) != 7 || !reflect.DeepEqual(ma, mp) {
		t.Fatalf("one exchange did not converge the pair: %d vs %d keys", len(ma), len(mp))
	}
	st := a.g.Stats()
	if st.Exchanges != 1 {
		t.Fatalf("exchange stats: %+v", st)
	}
	if st.RecordsReceived != 3 || st.RecordsSent != 4 {
		t.Fatalf("records moved: sent=%d received=%d, want 4/3", st.RecordsSent, st.RecordsReceived)
	}

	// Converged: the partner's next probe of a settles on fingerprints
	// alone, whichever round its seeded selection gets there.
	for r := 0; r < 50 && !c.converged(t); r++ {
		c.step(t)
	}
	if !c.converged(t) {
		t.Fatal("three nodes never converged")
	}
	before := partner.g.Stats().InSync
	if err := partner.g.Round(ctx); err != nil {
		t.Fatal(err)
	}
	if st := partner.g.Stats(); st.InSync != before+1 {
		t.Fatalf("converged probe was not in-sync: %+v", st)
	}
	// And the service Stats tree carries the gossip section.
	if ss := a.svc.Stats(); ss.Gossip == nil || ss.Gossip.Exchanges == 0 || ss.SyncRounds == 0 {
		t.Fatalf("Stats().Gossip / SyncRounds missing: %+v rounds=%d", ss.Gossip, ss.SyncRounds)
	}
}

// A fresh verdict rides the next exchange as a rumor: the receiving side
// applies it inside the opening message and the fingerprints agree
// without a manifest exchange — the round stays cheap AND spreads news.
func TestGossipFreshVerdictTravelsAsRumor(t *testing.T) {
	c := newGossipCluster(t, 3, 1)
	a := c.nodes[0]
	ctx := context.Background()
	if err := a.g.Round(ctx); err != nil { // probe one (empty, in-sync) peer
		t.Fatal(err)
	}
	verifyDistinct(t, a.svc, "fresh", 1)
	if st := a.g.Stats(); st.RumorsPending != 1 {
		t.Fatalf("fresh verdict not rumored: %+v", st)
	}
	if err := a.g.Round(ctx); err != nil {
		t.Fatal(err)
	}
	st := a.g.Stats()
	if st.InSync != 2 {
		t.Fatalf("rumored round should settle in-sync, got %+v", st)
	}
	if st.RecordsSent != 1 {
		t.Fatalf("rumor not counted as sent: %+v", st)
	}
	// The rumor's receiver is the peer that now holds the record.
	var receiver *gossipNode
	for _, n := range c.nodes[1:] {
		if reflect.DeepEqual(manifestOfService(t, a.svc), manifestOfService(t, n.svc)) {
			receiver = n
		}
	}
	if receiver == nil {
		t.Fatal("rumor did not replicate the fresh verdict")
	}
	// The receiving side re-rumors what it applied, spreading onward.
	if st := receiver.g.Stats(); st.RumorsPending == 0 {
		t.Fatalf("receiver did not re-rumor the applied record: %+v", st)
	}
}

// The exchange follows from the resolved configuration: while the fanout
// covers every peer the loop speaks fingerprint probes and plain
// sync-offer pulls (and marks no rumors); with more peers than fanout it
// speaks push-pull gossip. Both converge.
func TestExchangeSelectedByFanoutVersusPeers(t *testing.T) {
	for _, tc := range []struct {
		name            string
		nodes, fanout   int
		wantGossipWire  bool
		resolvedFanout  int
		wantRumorsAfter bool
	}{
		{name: "2 peers, default fanout: pull", nodes: 3, fanout: 0, resolvedFanout: 2},
		{name: "4 peers, fanout 2: push-pull", nodes: 5, fanout: 2, resolvedFanout: 2, wantGossipWire: true, wantRumorsAfter: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newGossipCluster(t, tc.nodes, tc.fanout)
			for i, n := range c.nodes {
				verifyDistinct(t, n.svc, fmt.Sprintf("n%d", i), 2)
			}
			if got := c.nodes[0].g.Stats(); got.Fanout != tc.resolvedFanout || (got.RumorsPending > 0) != tc.wantRumorsAfter {
				t.Fatalf("fanout=%d rumorsPending=%d, want fanout %d, rumors %v",
					got.Fanout, got.RumorsPending, tc.resolvedFanout, tc.wantRumorsAfter)
			}
			for r := 0; r < 50 && !c.converged(t); r++ {
				c.step(t)
			}
			if !c.converged(t) || len(manifestOfService(t, c.nodes[0].svc)) != 2*tc.nodes {
				t.Fatal("cluster did not converge on every node's records")
			}
			served := c.served()
			if len(served) == 0 {
				t.Fatal("no listener served anything")
			}
			reconciled := false
			for _, typ := range served {
				pushPull := strings.HasPrefix(typ, "gossip-")
				if typ != MsgGossip && pushPull != tc.wantGossipWire || (!pushPull && typ != MsgGossip && typ != MsgSyncOffer) {
					t.Fatalf("listener served %q (push-pull wire wanted: %v); all: %v", typ, tc.wantGossipWire, served)
				}
				reconciled = reconciled || typ != MsgGossip
			}
			if !reconciled {
				t.Fatalf("nothing but probes served: %v", served)
			}
			for _, n := range c.nodes {
				st := n.g.Stats()
				if st.Exchanges == 0 || st.RecordsReceived == 0 || st.BytesSent == 0 || st.BytesReceived == 0 {
					t.Fatalf("%s counters after convergence: %+v", n.addr, st)
				}
				for _, p := range st.Peers {
					if p.State != gossip.Healthy {
						t.Fatalf("%s sees %s as %s", n.addr, p.Address, p.State)
					}
				}
			}
		})
	}
}

// StartGossiper validates its preconditions: a store is required, the
// exchange and the trust veto are the service's own, and at most one
// gossiper may attach per service.
func TestStartGossiperValidation(t *testing.T) {
	bare := newTestService(t, Config{})
	dial := func(string) (transport.Client, error) { return nil, fmt.Errorf("never dialed") }
	if _, err := bare.StartGossiper(gossip.Config{Peers: []string{"x"}, Dial: dial}); err != ErrNoStore {
		t.Fatalf("gossiper without a store: %v", err)
	}
	stored := newTestService(t, Config{PersistPath: t.TempDir()})
	for name, cfg := range map[string]gossip.Config{
		"Exchange": {Peers: []string{"x"}, Dial: dial, Exchange: func(context.Context, transport.Client, gossip.Request) (gossip.Result, error) {
			return gossip.Result{}, nil
		}},
		"Permitted": {Peers: []string{"x"}, Dial: dial, Permitted: func(identity.PartyID) bool { return true }},
	} {
		if _, err := stored.StartGossiper(cfg); err == nil {
			t.Fatalf("a caller-set %s must be refused", name)
		}
	}
	if stored.Stats().Gossip != nil {
		t.Fatal("a refused gossiper was attached")
	}
	c := newGossipCluster(t, 2, 0)
	if _, err := c.nodes[0].svc.StartGossiper(gossip.Config{Peers: []string{"node-1"}, Dial: dial}); err == nil {
		t.Fatal("second gossiper must be refused")
	}
}
