// Package gossiptest is the in-process federation harness: it spins N
// verification authorities — internal/node, the assembly behind
// `authority verifier` — over an in-memory transport (transport.PipeNet),
// each with its own signing key, durable store, full allowlist and a
// manually stepped gossiper, then drives lockstep gossip rounds and
// measures convergence. Tests use it to assert round budgets and
// manifest identity under fault injection; cmd/experiments uses the same
// harness to produce the gossip-vs-all-pairs bench artifact — which is
// why everything here reports errors instead of importing testing.
package gossiptest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/node"
	"rationality/internal/transport"
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
	// Fanout is each node's -fanout (zero = the engine default).
	Fanout int
	// Seed makes the whole cluster reproducible: node keys aside (which
	// are random but interchangeable), every peer selection and fault
	// plan derives from it. Zero means 1.
	Seed int64
	// AuditRateFor, when non-nil, is node i's -audit-rate (nil: no node
	// audits) — e.g. a Byzantine node that never audits (it has nothing
	// to learn from re-running its own lies).
	AuditRateFor func(i int) float64
	// Accept, when non-nil, sets node i's procedure polarity; nil means
	// every node verifies honestly (accept).
	Accept func(i int) bool
	// Chaos, when non-nil, wraps every dialed connection in a fault
	// injector with these probabilities (the per-client seed derives from
	// Seed and the dial sequence, so runs replay).
	Chaos *transport.ChaosConfig
	// Logf receives the nodes' log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Node is one authority in the cluster: the production assembly
// (node.Start, persisted, keyed, trust policy on) with its place in the
// cluster. Its Gossiper is manually stepped.
type Node struct {
	*node.Node
	// Index is the node's position; Addr its PipeNet listen name; ID its
	// signing identity.
	Index int
	Addr  string
	ID    identity.PartyID
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

// New builds and starts a cluster. dir hosts each node's persist
// directory (node-0, node-1, ...).
func New(dir string, cfg Config) (*Cluster, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("gossiptest: cluster needs N >= 2, got %d", cfg.N)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &Cluster{Net: transport.NewPipeNet(), cfg: cfg}
	// Every node allowlists every other, so each key is on disk, where
	// node.Start loads it, before the first node starts.
	ids := make([]identity.PartyID, cfg.N)
	for i := range ids {
		k, _, err := identity.LoadOrCreateKeyFile(filepath.Join(dir, fmt.Sprintf("node-%d", i), "identity.key"))
		if err != nil {
			return nil, errors.Join(err, c.Close())
		}
		ids[i] = k.ID()
	}
	for i := range ids {
		n, err := c.start(dir, i, ids)
		if err != nil {
			return nil, errors.Join(err, c.Close())
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// start configures authority i as `authority verifier -persist dir/node-i
// -peers <every other node> -peer-keys <their keys>` would, but stepped.
func (c *Cluster) start(dir string, i int, ids []identity.PartyID) (*Node, error) {
	cfg, nc := c.cfg, node.Defaults()
	addr := fmt.Sprintf("node-%d", i)
	nc.ID, nc.Listen, nc.Persist = addr, addr, filepath.Join(dir, addr)
	nc.SyncInterval = 0 // Step drives every round
	for j, id := range ids {
		if j != i {
			nc.Peers = append(nc.Peers, fmt.Sprintf("node-%d", j))
			nc.PeerKeys = append(nc.PeerKeys, id)
		}
	}
	if cfg.Fanout != 0 {
		nc.Fanout = cfg.Fanout
	}
	if cfg.AuditRateFor != nil {
		nc.AuditRate = cfg.AuditRateFor(i)
	}
	nc.Procedures = core.NewProcedureRegistry()
	nc.Procedures.Register(&Proc{Accept: cfg.Accept == nil || cfg.Accept(i)})
	nc.Seed, nc.GossipSeed = cfg.Seed+int64(i), cfg.Seed*1000003+int64(i)
	if cfg.Logf != nil {
		nc.Logf = func(format string, args ...any) { cfg.Logf("[%s] "+format, append([]any{addr}, args...)...) }
	}
	n, err := node.Start(nc, node.Network{Listen: c.Net.Listen, Dial: c.dial})
	if err != nil {
		return nil, err
	}
	return &Node{Node: n, Index: i, Addr: addr, ID: n.Key.ID()}, nil
}

// dial opens a pipe client, wrapped in a chaos injector when the cluster
// is configured with one. Chaos seeds derive from the cluster seed and the
// dial sequence number: lockstep stepping dials in a deterministic order,
// so the whole fault schedule replays from Seed.
func (c *Cluster) dial(addr string) (transport.Client, error) {
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

// Verify runs n verifications on one node, with payloads unique to tag —
// n fresh verdicts in that node's log for gossip to spread.
func (c *Cluster) Verify(at int, tag string, n int) error {
	svc := c.Nodes[at].Service
	for i := 0; i < n; i++ {
		ann := core.Announcement{
			InventorID: "harness-inventor",
			Format:     ProcFormat,
			Game:       json.RawMessage(fmt.Sprintf(`{"%s":%d}`, tag, i)),
			Advice:     json.RawMessage(`{}`),
		}
		if _, err := svc.VerifyAnnouncement(context.Background(), ann); err != nil {
			return fmt.Errorf("gossiptest: verify on node %d: %w", at, err)
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
	report, err := c.DivergenceReport()
	return report == "" && err == nil, err
}

// DivergenceReport names the first divergent node pair, for test failure
// messages. Empty when converged.
func (c *Cluster) DivergenceReport() (string, error) {
	all := make([]int, len(c.Nodes))
	for i := range all {
		all[i] = i
	}
	return c.divergence(all)
}

// divergence names the first of nodes whose manifest differs from
// nodes[0]'s; empty when none does.
func (c *Cluster) divergence(nodes []int) (string, error) {
	if len(nodes) < 2 {
		return "", nil
	}
	want, err := c.manifest(nodes[0])
	if err != nil {
		return "", err
	}
	for _, i := range nodes[1:] {
		got, err := c.manifest(i)
		if err != nil {
			return "", err
		}
		if !slices.Equal(got, want) {
			return fmt.Sprintf("node-%d holds %d records, node-%d holds %d", nodes[0], len(want), i, len(got)), nil
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

// Close drains every node (node.Node.Close) and tears the network down.
// Teardown continues past a failure; the errors are joined.
func (c *Cluster) Close() error {
	var errs []error
	for _, n := range c.Nodes {
		errs = append(errs, n.Close())
	}
	return errors.Join(append(errs, c.Net.Close())...)
}
