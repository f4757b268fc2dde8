package gossip_test

import (
	"context"
	"fmt"
	"maps"
	"testing"
	"time"

	"rationality/internal/gossip/gossiptest"
	"rationality/internal/transport"
	"rationality/internal/trust"
)

// seedCluster gives every node tag-distinct records so the cluster
// starts fully divergent: n nodes, recordsPer each, no overlap.
func seedCluster(t *testing.T, c *gossiptest.Cluster, recordsPer int) {
	t.Helper()
	for i := range c.Nodes {
		if err := c.Verify(i, c.Nodes[i].Addr, recordsPer); err != nil {
			t.Fatal(err)
		}
	}
}

// The headline budget: a 20-authority federation, every node holding
// records no other node has, converges to identical manifests within
// ceil(2*log2(20)) = 9 lockstep push-pull rounds. CI runs this with
// -race -count=2; the budget is the regression tripwire for the O(log n)
// claim.
func TestGossipConvergenceBudget20Nodes(t *testing.T) {
	c, err := gossiptest.New(t.TempDir(), gossiptest.Config{
		N: 20, Fanout: 2, Seed: 42, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCluster(t, c, 2)
	rounds, err := c.RoundsToConverge(context.Background(), 9)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("20 nodes converged in %d rounds, %d bytes on wire", rounds, c.BytesOnWire())

	// Convergence-invariant: once settled, further rounds keep every
	// manifest byte-identical and settle on cheap in-sync probes.
	_, _, _, inSyncBefore := c.GossipStats()
	for i := 0; i < 3; i++ {
		if err := c.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := c.Converged()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		report, _ := c.DivergenceReport()
		t.Fatalf("converged cluster diverged under further rounds: %s", report)
	}
	_, _, _, inSyncAfter := c.GossipStats()
	if inSyncAfter <= inSyncBefore {
		t.Fatalf("converged rounds were not in-sync probes: %d -> %d", inSyncBefore, inSyncAfter)
	}
}

// Chaos-link rounds: 30% of calls dropped, 15% duplicated, 15% of
// replies garbled. Convergence survives — failed exchanges are counted
// and retried on later rounds, duplicates are absorbed by idempotent
// ingest, garbled replies fail signature/decode checks before any record
// lands — it just takes more rounds.
func TestGossipConvergenceUnderChaos(t *testing.T) {
	c, err := gossiptest.New(t.TempDir(), gossiptest.Config{
		N: 10, Fanout: 2, Seed: 7,
		Chaos: &transport.ChaosConfig{Drop: 0.30, Duplicate: 0.15, Garble: 0.15},
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCluster(t, c, 2)
	rounds, err := c.RoundsToConverge(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	_, exchanges, failures, _ := c.GossipStats()
	t.Logf("10 chaos nodes converged in %d rounds (%d exchanges, %d injected failures)",
		rounds, exchanges, failures)
	if failures == 0 {
		t.Fatal("a thirty-percent-drop fault plan injected no failures: chaos not wired")
	}
}

// A peer quarantined by the trust policy is never selected as a gossip
// partner once its identity is learned: the engine skips it before
// dialing and counts the skip.
func TestGossipQuarantinedPeerNeverSelected(t *testing.T) {
	c, err := gossiptest.New(t.TempDir(), gossiptest.Config{
		N: 4, Fanout: 2, Seed: 11, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCluster(t, c, 1)
	ctx := context.Background()
	liar := c.Nodes[3]

	// Warm rounds until every honest engine has learned the target's
	// signing identity (an exchange teaches it).
	learned := func() bool {
		for _, n := range c.Nodes[:3] {
			found := false
			for _, p := range n.Gossiper.Stats().Peers {
				if p.Address == liar.Addr && p.Signer == liar.ID {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	for r := 0; r < 40 && !learned(); r++ {
		if err := c.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if !learned() {
		t.Fatal("honest nodes never learned the target's identity")
	}

	// Quarantine the target on every honest node's policy, by evidence.
	for _, n := range c.Nodes[:3] {
		for i := 0; i < 4 && n.Trust.State(string(liar.ID)) != trust.Quarantined; i++ {
			n.Trust.Charge(string(liar.ID), "harness: forced quarantine")
		}
		if got := n.Trust.State(string(liar.ID)); got != trust.Quarantined {
			t.Fatalf("charges did not quarantine the peer: state %s", got)
		}
	}

	exchangesWith := func(n *gossiptest.Node) (ex, skipped uint64) {
		for _, p := range n.Gossiper.Stats().Peers {
			if p.Address == liar.Addr {
				return p.Attempts, p.SkippedQuarantine
			}
		}
		return 0, 0
	}
	before := make([]uint64, 3)
	for i, n := range c.Nodes[:3] {
		before[i], _ = exchangesWith(n)
	}
	for r := 0; r < 10; r++ {
		if err := c.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var skippedTotal uint64
	for i, n := range c.Nodes[:3] {
		after, skipped := exchangesWith(n)
		if after != before[i] {
			t.Fatalf("node %d exchanged with a quarantined peer (%d -> %d)", i, before[i], after)
		}
		skippedTotal += skipped
	}
	if skippedTotal == 0 {
		t.Fatal("ten fanout-2 rounds over three peers never even considered the quarantined one")
	}
}

// The accountability loop over gossip paths, mirroring the PR 7 syncer
// test: a Byzantine authority vouches for lying verdicts, gossip spreads
// them, honest auditors (AuditRate 1) refute and repair them, and the
// repaired records out-gossip the lies — the cluster converges on the
// truth, with the liar quarantined by evidence on the nodes that caught
// it first-hand.
func TestGossipByzantineLieRepairedThroughGossip(t *testing.T) {
	const lies = 3
	c, err := gossiptest.New(t.TempDir(), gossiptest.Config{
		N: 4, Fanout: 2, Seed: 23,
		Accept: func(i int) bool { return i != 3 },
		// Honest nodes audit everything; the liar audits nothing (re-running
		// its own lying procedure would only "repair" truth back into lies).
		AuditRateFor: func(i int) float64 {
			if i == 3 {
				return 0
			}
			return 1
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	liar := c.Nodes[3]
	if err := c.Verify(3, "lie", lies); err != nil {
		t.Fatal(err)
	}
	lieSums := manifestSums(t, c, 3)
	if len(lieSums) != lies {
		t.Fatalf("liar seeded %d records, want %d", len(lieSums), lies)
	}

	// Step rounds (with breathing room for the async auditors) until the
	// cluster converges on content that is NOT the lies: every node's
	// manifest identical, and every lie key re-summed by a repair.
	ctx := context.Background()
	deadline := time.Now().Add(30 * time.Second)
	// Convergence is asserted among the honest nodes: the liar also pulls
	// the repairs back, but charging relays and quarantine timing make its
	// copy's stamps a race, and the truth invariant is about honest state.
	repaired := func() bool {
		if !sameManifests(c, []int{0, 1, 2}) {
			return false
		}
		sums := manifestSums(t, c, 0)
		for key, sum := range lieSums {
			if got, held := sums[key]; !held || got == sum {
				return false // key missing or still carrying the lying verdict
			}
		}
		return true
	}
	for !repaired() {
		if time.Now().After(deadline) {
			report, _ := c.DivergenceReport()
			t.Fatalf("cluster never converged on repaired content: %s", report)
		}
		if err := c.Step(ctx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond) // let auditors drain between rounds
	}

	// At least one honest node caught the lies first-hand and quarantined
	// the liar; its stats carry the refutations.
	quarantinedBy, refutations := 0, uint64(0)
	for _, n := range c.Nodes[:3] {
		if n.Trust.State(string(liar.ID)) == trust.Quarantined {
			quarantinedBy++
		}
		refutations += n.Service.Stats().AuditRefutations
	}
	if quarantinedBy == 0 {
		t.Fatal("no honest node quarantined the Byzantine voucher")
	}
	if refutations < lies {
		t.Fatalf("audit refutations = %d, want >= %d", refutations, lies)
	}
}

// manifestSums maps record key -> content sum for one node's manifest.
func manifestSums(t *testing.T, c *gossiptest.Cluster, node int) map[string]uint32 {
	t.Helper()
	offer, err := c.Nodes[node].Service.SyncOffer()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint32, len(offer.Have))
	for _, e := range offer.Have {
		out[string(e.Key)] = e.Sum
	}
	return out
}

// sameManifests reports whether the given nodes hold identical manifests —
// key, stamp and sum sets — as Cluster.Converged does for every node.
func sameManifests(c *gossiptest.Cluster, nodes []int) bool {
	var want map[string]string
	for _, i := range nodes {
		offer, err := c.Nodes[i].Service.SyncOffer()
		if err != nil {
			return false
		}
		got := make(map[string]string, len(offer.Have))
		for _, e := range offer.Have {
			got[string(e.Key)] = fmt.Sprint(e.Stamp, e.Sum)
		}
		if want == nil {
			want = got
		} else if !maps.Equal(got, want) {
			return false
		}
	}
	return true
}
