// Package gossiptest is the in-process federation harness: it spins N
// verification authorities over an in-memory transport (transport.PipeNet),
// each with its own signing key, durable store, full allowlist and a
// manually stepped gossiper, then drives lockstep gossip rounds and
// measures convergence. Tests use it to assert round budgets and
// manifest identity under fault injection; cmd/experiments uses the same
// harness to produce the gossip-vs-all-pairs bench artifact — which is
// why everything here reports errors instead of importing testing.
package gossiptest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"rationality/internal/core"
	"rationality/internal/gossip"
	"rationality/internal/identity"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
	"rationality/internal/trust"
)

// ProcFormat is the proof format the harness procedure serves.
const ProcFormat = "gossiptest/v1"

// Proc is the harness verification procedure: deterministic, trivially
// cheap, and polarity-configurable so a cluster can contain Byzantine
// authorities whose vouched verdicts honest re-verification refutes.
type Proc struct {
	// Accept is the verdict polarity every verification returns.
	Accept bool
}

// Format implements core.Procedure.
func (p *Proc) Format() string { return ProcFormat }

// Verify implements core.Procedure: every well-formed proof gets the
// configured polarity. Determinism is what makes audits meaningful — an
// honest node re-running a Byzantine node's verification always exposes
// the contradiction.
func (p *Proc) Verify(gameSpec, advice, proofBody json.RawMessage) (*core.Verdict, error) {
	return &core.Verdict{
		Accepted: p.Accept,
		Format:   ProcFormat,
		Reason:   fmt.Sprintf("gossiptest fixture verdict (accept=%v)", p.Accept),
	}, nil
}

// Config sizes and seeds a harness cluster.
type Config struct {
	// N is the number of authorities. Required, >= 2.
	N int
	// Fanout, RumorTTL and AntiEntropyEvery pass through to each node's
	// gossiper (zero = the engine defaults).
	Fanout           int
	RumorTTL         int
	AntiEntropyEvery int
	// Seed makes the whole cluster reproducible: node keys aside (which
	// are random but interchangeable), every peer selection and fault
	// plan derives from it. Zero means 1.
	Seed int64
	// AuditRate is each node's Config.AuditRate (0 disables auditing);
	// AuditRateFor, when non-nil, overrides it per node — e.g. a
	// Byzantine node that never audits (it has nothing to learn from
	// re-running its own lies).
	AuditRate    float64
	AuditRateFor func(i int) float64
	// Accept, when non-nil, sets node i's procedure polarity; nil means
	// every node verifies honestly (accept).
	Accept func(i int) bool
	// Trust attaches a quarantine policy to every node.
	Trust bool
	// Chaos, when non-nil, wraps every dialed connection in a fault
	// injector with these probabilities (the per-client seed derives from
	// Seed and the dial sequence, so runs replay).
	Chaos *transport.ChaosConfig
	// Logf receives the nodes' log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Node is one authority in the cluster.
type Node struct {
	// Index is the node's position; Addr its PipeNet listen name; ID its
	// signing identity.
	Index int
	Addr  string
	ID    identity.PartyID
	// Service is the node's verification authority; Gossiper its manually
	// stepped gossip loop; Trust its quarantine policy (nil unless
	// Config.Trust).
	Service  *service.Service
	Gossiper *service.Gossiper
	Trust    *trust.Policy
}

// Cluster is a running in-process federation. Build with New, release
// with Close.
type Cluster struct {
	// Net is the shared in-memory network; its byte counter is the
	// bytes-on-wire measurement.
	Net   *transport.PipeNet
	Nodes []*Node

	cfg       Config
	chaosSeed atomic.Int64
}

// New builds and starts a cluster. dir hosts each node's durable store
// and trust state (node-0, node-1, ...).
func New(dir string, cfg Config) (*Cluster, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("gossiptest: cluster needs N >= 2, got %d", cfg.N)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Cluster{Net: transport.NewPipeNet(), cfg: cfg}
	keys := make([]*identity.KeyPair, cfg.N)
	ids := make([]identity.PartyID, cfg.N)
	for i := range keys {
		k, err := identity.NewKeyPair()
		if err != nil {
			c.close()
			return nil, err
		}
		keys[i] = k
		ids[i] = k.ID()
	}
	for i := 0; i < cfg.N; i++ {
		node, err := c.startNode(dir, i, keys[i], ids)
		if err != nil {
			c.close()
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
	}
	return c, nil
}

// startNode builds authority i: service, listener, gossiper.
func (c *Cluster) startNode(dir string, i int, key *identity.KeyPair, ids []identity.PartyID) (*Node, error) {
	cfg := c.cfg
	addr := fmt.Sprintf("node-%d", i)
	nodeDir := filepath.Join(dir, addr)
	if err := os.MkdirAll(nodeDir, 0o755); err != nil {
		return nil, err
	}
	allow := make([]identity.PartyID, 0, cfg.N-1)
	peers := make([]string, 0, cfg.N-1)
	for j, id := range ids {
		if j == i {
			continue
		}
		allow = append(allow, id)
		peers = append(peers, fmt.Sprintf("node-%d", j))
	}
	var pol *trust.Policy
	if cfg.Trust {
		var err error
		pol, err = trust.New(trust.Config{
			Registry: reputation.NewRegistry(),
			Path:     filepath.Join(nodeDir, "trust.json"),
		})
		if err != nil {
			return nil, err
		}
	}
	auditRate := cfg.AuditRate
	if cfg.AuditRateFor != nil {
		auditRate = cfg.AuditRateFor(i)
	}
	svc, err := service.New(service.Config{
		ID:          addr,
		PersistPath: filepath.Join(nodeDir, "store"),
		Key:         key,
		PeerKeys:    allow,
		Trust:       pol,
		AuditRate:   auditRate,
		Seed:        cfg.Seed + int64(i),
	})
	if err != nil {
		return nil, err
	}
	accept := true
	if cfg.Accept != nil {
		accept = cfg.Accept(i)
	}
	svc.Register(&Proc{Accept: accept})
	if err := c.Net.Listen(addr, svc); err != nil {
		_ = svc.Close()
		return nil, err
	}
	logf := func(format string, args ...any) {
		cfg.Logf("[%s] "+format, append([]any{addr}, args...)...)
	}
	g, err := svc.StartGossiper(gossip.Config{
		Peers:            peers,
		Fanout:           cfg.Fanout,
		RumorTTL:         cfg.RumorTTL,
		AntiEntropyEvery: cfg.AntiEntropyEvery,
		Seed:             cfg.Seed*1000003 + int64(i),
		Dial:             c.dialer(),
		Logf:             logf,
	})
	if err != nil {
		_ = svc.Close()
		return nil, err
	}
	return &Node{Index: i, Addr: addr, ID: key.ID(), Service: svc, Gossiper: g, Trust: pol}, nil
}

// dialer opens pipe clients, wrapping each in a chaos injector when the
// cluster is configured with one. Chaos seeds derive from the cluster
// seed and the dial sequence number: lockstep stepping dials in a
// deterministic order, so the whole fault schedule replays from Seed.
func (c *Cluster) dialer() func(addr string) (transport.Client, error) {
	return func(addr string) (transport.Client, error) {
		client, err := c.Net.Dial(addr)
		if err != nil {
			return nil, err
		}
		if c.cfg.Chaos == nil {
			return client, nil
		}
		cc := *c.cfg.Chaos
		cc.Seed = c.cfg.Seed*7919 + c.chaosSeed.Add(1)
		return transport.Chaos(client, cc), nil
	}
}

// Verify runs n verifications on one node, with payloads unique to tag —
// n fresh verdicts in that node's log for gossip to spread.
func (c *Cluster) Verify(node int, tag string, n int) error {
	svc := c.Nodes[node].Service
	for i := 0; i < n; i++ {
		ann := core.Announcement{
			InventorID: "harness-inventor",
			Format:     ProcFormat,
			Game:       json.RawMessage(fmt.Sprintf(`{"%s":%d}`, tag, i)),
			Advice:     json.RawMessage(`{}`),
		}
		if _, err := svc.VerifyAnnouncement(context.Background(), ann); err != nil {
			return fmt.Errorf("gossiptest: verify on node %d: %w", node, err)
		}
	}
	return nil
}

// Step runs one lockstep gossip round: every node's gossiper takes one
// Round, in index order. Peer failures inside a round are counted, not
// returned; the error is the context's.
func (c *Cluster) Step(ctx context.Context) error {
	for _, n := range c.Nodes {
		if err := n.Gossiper.Round(ctx); err != nil {
			return err
		}
	}
	return nil
}

// manifestEntry is one record line in a node's canonical manifest.
type manifestEntry struct {
	Key   string
	Stamp uint64
	Sum   uint32
}

// manifest snapshots one node's verdict log as a sorted entry list,
// via the same SyncOffer surface peers see.
func (c *Cluster) manifest(i int) ([]manifestEntry, error) {
	offer, err := c.Nodes[i].Service.SyncOffer()
	if err != nil {
		return nil, err
	}
	out := make([]manifestEntry, 0, len(offer.Have))
	for _, e := range offer.Have {
		out = append(out, manifestEntry{Key: string(e.Key), Stamp: e.Stamp, Sum: e.Sum})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out, nil
}

// Converged reports whether every node's manifest — key, stamp and sum
// sets — is identical. This is the strong invariant: not just equal
// fingerprints, byte-equal replica state.
func (c *Cluster) Converged() (bool, error) {
	all := make([]int, len(c.Nodes))
	for i := range all {
		all[i] = i
	}
	return c.ConvergedAmong(all)
}

// ConvergedAmong checks manifest identity over a subset of nodes — e.g.
// the honest ones, when a Byzantine node keeps rewriting its own copy.
func (c *Cluster) ConvergedAmong(nodes []int) (bool, error) {
	if len(nodes) < 2 {
		return true, nil
	}
	want, err := c.manifest(nodes[0])
	if err != nil {
		return false, err
	}
	for _, i := range nodes[1:] {
		got, err := c.manifest(i)
		if err != nil {
			return false, err
		}
		if len(got) != len(want) {
			return false, nil
		}
		for j := range got {
			if got[j] != want[j] {
				return false, nil
			}
		}
	}
	return true, nil
}

// DivergenceReport names the first divergent node pair, for test failure
// messages. Empty when converged.
func (c *Cluster) DivergenceReport() (string, error) {
	want, err := c.manifest(0)
	if err != nil {
		return "", err
	}
	wantJSON, _ := json.Marshal(want)
	for i := 1; i < len(c.Nodes); i++ {
		got, err := c.manifest(i)
		if err != nil {
			return "", err
		}
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(gotJSON, wantJSON) {
			return fmt.Sprintf("node-0 holds %d records, node-%d holds %d", len(want), i, len(got)), nil
		}
	}
	return "", nil
}

// RoundsToConverge steps the cluster until every manifest is identical,
// returning the number of rounds it took. Fails with an error after max
// rounds — the round-budget assertion, inverted.
func (c *Cluster) RoundsToConverge(ctx context.Context, max int) (int, error) {
	for r := 1; r <= max; r++ {
		if err := c.Step(ctx); err != nil {
			return r, err
		}
		ok, err := c.Converged()
		if err != nil {
			return r, err
		}
		if ok {
			return r, nil
		}
	}
	report, _ := c.DivergenceReport()
	return max, fmt.Errorf("gossiptest: not converged after %d rounds: %s", max, report)
}

// AllPairsPull runs one classic anti-entropy interval: every node pulls
// from every other node once (n·(n−1) signed exchanges). With static
// data one interval converges the cluster — it is the baseline the
// gossip bench compares against. Fresh unchaosed clients are dialed and
// closed per pull so the byte counter sees exactly the pull traffic.
func (c *Cluster) AllPairsPull(ctx context.Context) error {
	for i, n := range c.Nodes {
		for j := range c.Nodes {
			if j == i {
				continue
			}
			client, err := c.Net.Dial(c.Nodes[j].Addr)
			if err != nil {
				return err
			}
			_, _, err = n.Service.PullFrom(ctx, client)
			_ = client.Close()
			if err != nil {
				return fmt.Errorf("gossiptest: node %d pull from %d: %w", i, j, err)
			}
		}
		n.Service.NoteSyncRound()
	}
	return nil
}

// BytesOnWire reports the total bytes moved across the cluster's network
// since it started.
func (c *Cluster) BytesOnWire() uint64 { return c.Net.BytesOnWire() }

// GossipStats sums the per-node gossip counters into one cluster view.
func (c *Cluster) GossipStats() (rounds, exchanges, failures, inSync uint64) {
	for _, n := range c.Nodes {
		st := n.Gossiper.Stats()
		rounds += st.Rounds
		exchanges += st.Exchanges
		failures += st.Failures
		inSync += st.InSync
	}
	return
}

// Close stops every gossiper, closes every service and tears the network
// down. The first error wins; teardown continues regardless.
func (c *Cluster) Close() error { return c.close() }

func (c *Cluster) close() error {
	var first error
	for _, n := range c.Nodes {
		n.Gossiper.Stop()
	}
	if err := c.Net.Close(); err != nil && first == nil {
		first = err
	}
	for _, n := range c.Nodes {
		if err := n.Service.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
