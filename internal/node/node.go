// Package node is the one place a rationality authority is assembled:
// signing key, admin plane and readiness gates, trust policy, verification
// service, listener and replication loop, started in that order and
// drained in the reverse. `authority verifier` is this package behind a
// flag set; the gossip harness and Example_federation start the same
// authority in-process over a transport.PipeNet.
package node

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"rationality/internal/core"
	"rationality/internal/gossip"
	"rationality/internal/identity"
	"rationality/internal/obs"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/store"
	"rationality/internal/transport"
	"rationality/internal/trust"
)

// Config is one authority: a field per `authority verifier` flag, named
// after it, and below them the seams an embedder sets in code. Start from
// Defaults: as on the command line, a zero CacheShards, SyncEvery, Fanout,
// RumorTTL or SyncTimeout is refused, not defaulted.
type Config struct {
	ID                   string             // -id: the identity in wire replies
	Listen               string             // -listen
	Workers              int                // -workers (0 = GOMAXPROCS)
	CacheSize            int                // -cache-size (0 = default, negative disables)
	CacheShards          int                // -cache-shards: a power of two, at most the cache size
	Persist              string             // -persist: verdict log, trust.json and identity.key
	SyncEvery            int                // -sync-every
	Peers                []string           // -peers
	SyncInterval         time.Duration      // -sync-interval; 0 steps the loop by hand (Gossiper.Round)
	SyncTimeout          time.Duration      // -sync-timeout
	SyncBackoffMax       time.Duration      // -sync-backoff-max
	SyncJitter           float64            // -sync-jitter; 0 turns jitter off
	Fanout               int                // -fanout
	RumorTTL             int                // -rumor-ttl
	AuditRate            float64            // -audit-rate
	QuarantineThreshold  float64            // -quarantine-threshold
	Probation            time.Duration      // -probation
	Key                  string             // -key; empty means <Persist>/identity.key
	PeerKeys             []identity.PartyID // -peer-keys
	PanelKeys            []identity.PartyID // -panel-keys, in panel order
	CertThreshold        int                // -cert-threshold (0 = supermajority)
	AdmissionInteractive float64            // -admission-interactive
	AdmissionBatch       float64            // -admission-batch
	Admin                string             // -admin: /metrics, /healthz, /readyz, /debug/pprof
	Byzantine            bool               // -byzantine: the bundled procedures, every verdict inverted

	Procedures       *core.ProcedureRegistry          // service.Config.Procedures; nil serves the bundled ones
	Seed, GossipSeed int64                            // service.Config.Seed, gossip.Config.Seed; zero draws from the clock
	Logf             func(format string, args ...any) // start banner, trust transitions, replication; nil discards
}

// Defaults is the configuration `authority verifier` runs with when no
// flag is given.
func Defaults() Config {
	return Config{
		ID: "verifier-1", Listen: "127.0.0.1:7101",
		CacheSize: service.DefaultCacheSize, CacheShards: service.DefaultCacheShards,
		SyncEvery: store.DefaultSyncEvery, SyncInterval: 30 * time.Second, SyncTimeout: time.Minute,
		SyncBackoffMax: gossip.DefaultBackoffMax, SyncJitter: gossip.DefaultJitter,
		Fanout: gossip.DefaultFanout, RumorTTL: gossip.DefaultRumorTTL,
		QuarantineThreshold: trust.DefaultThreshold, Probation: trust.DefaultProbation,
	}
}

// Validate refuses a configuration that cannot mean what it says, naming
// the flag. What service.New refuses (the -audit-rate range, -audit-rate
// without -persist, malformed keys) it leaves to service.New.
func (c Config) Validate() error {
	peered, cacheSize := len(c.Peers) > 0, c.CacheSize
	if cacheSize == 0 { // the default, not "no cache"
		cacheSize = service.DefaultCacheSize
	}
	switch {
	case c.Fanout < 1:
		return fmt.Errorf("-fanout must be at least 1, got %d", c.Fanout)
	case c.RumorTTL < 1:
		return fmt.Errorf("-rumor-ttl must be at least 1, got %d", c.RumorTTL)
	case peered && c.Persist == "": // nothing to offer a peer, nowhere to keep what it sends
		return fmt.Errorf("-peers requires -persist: anti-entropy replicates the durable verdict log")
	case peered && c.SyncInterval < 0:
		return fmt.Errorf("-sync-interval must be positive, got %s", c.SyncInterval)
	case peered && c.SyncTimeout <= 0:
		return fmt.Errorf("-sync-timeout must be positive, got %s", c.SyncTimeout)
	case c.CacheShards <= 0 || c.CacheShards&(c.CacheShards-1) != 0: // any other count would quietly become another
		return fmt.Errorf("-cache-shards must be a positive power of two (the stripe selector is a bit mask), got %d", c.CacheShards)
	case cacheSize > 0 && c.CacheShards > cacheSize: // refused, not capped
		return fmt.Errorf("-cache-shards (%d) cannot exceed the cache capacity (%d entries): every stripe needs at least one entry", c.CacheShards, cacheSize)
	case c.SyncEvery <= 0:
		return fmt.Errorf("-sync-every must be at least 1 (fsync after every n-th record), got %d", c.SyncEvery)
	case c.CertThreshold != 0 && len(c.PanelKeys) == 0:
		return fmt.Errorf("-cert-threshold requires -panel-keys: the threshold counts co-signatures against the panel keyset")
	case len(c.PeerKeys) > 0 && c.Persist == "": // an inert allowlist reads as security that is not there
		return fmt.Errorf("-peer-keys requires -persist: the allowlist gates ingestion into the durable verdict log")
	case c.Key != "" && c.Persist == "":
		return fmt.Errorf("-key requires -persist: the signing identity exists to vouch for durable verdict history")
	case c.AdmissionInteractive < 0:
		return fmt.Errorf("-admission-interactive must be >= 0, got %g", c.AdmissionInteractive)
	case c.AdmissionBatch < 0:
		return fmt.Errorf("-admission-batch must be >= 0, got %g", c.AdmissionBatch)
	}
	return nil
}

// Network is where a node listens and how it reaches its peers.
type Network struct {
	Listen func(addr string, h transport.Handler) (*transport.Server, error) // serves the node
	Dial   func(addr string) (transport.Client, error)                       // opens a replication client
}

// TCP is the production Network: kernel sockets, each peer dial bounded
// by dialTimeout.
func TCP(dialTimeout time.Duration) Network {
	dial := func(addr string) (transport.Client, error) { return transport.DialTCP(addr, dialTimeout) }
	return Network{Listen: transport.ListenTCP, Dial: dial}
}

// Pipe is the in-memory Network over n.
func Pipe(n *transport.PipeNet) Network {
	return Network{Listen: n.Listen, Dial: func(addr string) (transport.Client, error) { return n.Dial(addr) }}
}

// Node is one running authority. Its parts are exported for embedders
// that drive them directly; Close releases them all.
type Node struct {
	Key      *identity.KeyPair // nil without Persist
	Admin    *obs.Server       // nil without Admin
	Trust    *trust.Policy     // nil without Persist
	Service  *service.Service  // the verification authority
	Server   *transport.Server // the listener serving Service
	Gossiper *service.Gossiper // nil without Peers

	live  atomic.Pointer[service.Service] // Service, once the admin plane may report it
	ready *obs.Readiness
}

// Start validates cfg and brings an authority up over network: key, admin
// plane and readiness gates, trust policy, service (which replays the
// verdict log), listener, then the replication loop. A failed start
// closes whatever it had opened, so the persist dir's lock is free again.
func Start(cfg Config, network Network) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &Node{}
	if err := n.start(cfg, network); err != nil {
		return nil, errors.Join(err, n.Close())
	}
	return n, nil
}

func (n *Node) start(cfg Config, network Network) (err error) {
	logf := cfg.Logf
	// A persisted authority always signs with an on-disk identity; its
	// printed party ID is what peers put in their -peer-keys.
	keyFile, keyCreated := cfg.Key, false
	if keyFile == "" && cfg.Persist != "" {
		keyFile = filepath.Join(cfg.Persist, "identity.key")
	}
	if keyFile != "" {
		if n.Key, keyCreated, err = identity.LoadOrCreateKeyFile(keyFile); err != nil {
			return err
		}
	}
	// The admin plane comes up before the service, so liveness answers and
	// /readyz honestly says 503 while a large warm-start replay runs.
	gates := []string{obs.GateWarmStart}
	if len(cfg.Peers) > 0 { // it may lack history its peers hold until one exchange succeeds
		gates = append(gates, obs.GateFirstSync)
	}
	n.ready = obs.NewReadiness(gates...)
	if cfg.Admin != "" {
		if n.Admin, err = obs.NewServer(obs.ServerConfig{Addr: cfg.Admin, ID: cfg.ID, Stats: n.stats, Readiness: n.ready}); err != nil {
			return err
		}
		logf("admin: /metrics /healthz /readyz /debug/pprof on %s", n.Admin.Addr())
	}
	// The service charges refuted vouchers through the registry the policy
	// watches; trust.json beside the log keeps a quarantine across restarts.
	registry := reputation.NewRegistry()
	trustPath := filepath.Join(cfg.Persist, "trust.json")
	if cfg.Persist != "" {
		verbs := map[trust.State]string{trust.Quarantined: "quarantined", trust.Probation: "enters probation", trust.Active: "readmitted"}
		if n.Trust, err = trust.New(trust.Config{
			Registry:  registry,
			Threshold: cfg.QuarantineThreshold,
			Probation: cfg.Probation,
			Path:      trustPath,
			OnChange: func(peer string, _, to trust.State, detail string) {
				logf("trust: peer %s %s: %s", peer, verbs[to], detail)
			},
		}); err != nil {
			return err
		}
	}
	procs := cfg.Procedures
	if cfg.Byzantine {
		procs = core.NewLyingProcedureRegistry()
	}
	if n.Service, err = service.New(service.Config{
		ID:            cfg.ID,
		Workers:       cfg.Workers,
		CacheSize:     cfg.CacheSize,
		CacheShards:   cfg.CacheShards,
		Reputation:    registry,
		Procedures:    procs,
		PersistPath:   cfg.Persist,
		SyncEvery:     cfg.SyncEvery,
		Key:           n.Key,
		PeerKeys:      cfg.PeerKeys,
		PanelKeys:     cfg.PanelKeys,
		CertThreshold: cfg.CertThreshold,
		Trust:         n.Trust,
		AuditRate:     cfg.AuditRate,
		Seed:          cfg.Seed,
		Admission:     service.AdmissionConfig{InteractiveRate: cfg.AdmissionInteractive, BatchRate: cfg.AdmissionBatch},
	}); err != nil {
		return err
	}
	st := n.Service.Stats()
	if adm := st.Admission; adm != nil {
		logf("admission: interactive rate=%g/s burst=%d, batch rate=%g/s burst=%d (batch sheds first)",
			adm.Interactive.Rate, adm.Interactive.Burst, adm.Batch.Rate, adm.Batch.Burst)
	}
	n.live.Store(n.Service)
	n.ready.Mark(obs.GateWarmStart) // the replay is over: the cache is as warm as the log makes it
	if n.Server, err = network.Listen(cfg.Listen, n.Service); err != nil {
		return err
	}
	logf("verifier %q serving %d formats on %s (workers=%d cache=%d shards=%d)",
		cfg.ID, len(n.Service.Formats()), n.Server.Addr(), st.Workers, cfg.CacheSize, st.CacheShards)
	if p := st.Persistence; p != nil {
		logf("persistence: %s (replayed %d verdicts, sync every %d, salvaged %d bytes)",
			cfg.Persist, p.Replayed, cfg.SyncEvery, p.SalvagedBytes)
	}
	if n.Key != nil {
		verb := "loaded"
		if keyCreated {
			verb = "created"
		}
		logf("federation: signing as %s (key %s, %s)", n.Key.ID(), keyFile, verb)
	}
	if len(cfg.PeerKeys) > 0 {
		logf("federation: allowlisting %d peer keys; unsigned or unknown-signer deltas will be rejected", len(cfg.PeerKeys))
	}
	if len(cfg.PanelKeys) > 0 {
		thr := cfg.CertThreshold
		if thr == 0 {
			thr = core.SupermajorityThreshold(len(cfg.PanelKeys))
		}
		logf("certificates: verifying against a %d-member panel keyset (threshold %d)", len(cfg.PanelKeys), thr)
	}
	if n.Trust != nil {
		logf("trust: quarantine below reputation %.2f, probation %s (state %s)", cfg.QuarantineThreshold, cfg.Probation, trustPath)
	}
	if cfg.AuditRate > 0 {
		logf("audit: re-verifying %.0f%% of ingested peer records in the background", cfg.AuditRate*100)
	}
	if cfg.Byzantine {
		logf("verifier %q is BYZANTINE: every verdict inverted before it is served, persisted or vouched for", cfg.ID)
	}
	if len(cfg.Peers) == 0 {
		return nil
	}
	logf("replication: %d peers every %s", len(cfg.Peers), cfg.SyncInterval)
	jitter := cfg.SyncJitter
	if jitter == 0 {
		jitter = -1 // the flag's "off"; the engine reads 0 as its default
	}
	n.Gossiper, err = n.Service.StartGossiper(gossip.Config{
		Peers:      cfg.Peers,
		Fanout:     cfg.Fanout,
		Interval:   cfg.SyncInterval,
		Jitter:     jitter,
		BackoffMax: cfg.SyncBackoffMax,
		RumorTTL:   cfg.RumorTTL,
		Timeout:    cfg.SyncTimeout,
		Seed:       cfg.GossipSeed,
		Dial:       network.Dial,
		Logf:       logf,
		OnRound: func(exchanged bool) { // a round in which every peer failed caught up on nothing
			if exchanged {
				n.ready.Mark(obs.GateFirstSync)
			}
		},
	})
	return err
}

// stats is what the admin plane renders: zero-valued until the service
// has replayed its log.
func (n *Node) stats() service.Stats {
	if s := n.live.Load(); s != nil {
		return s.Stats()
	}
	return service.Stats{}
}

// Close drains the node and prints nothing: the replication loop stops
// first (an ingest racing the store teardown would only fail), then the
// listener, then the service (which drains in-flight work and fsyncs the
// log), and the admin plane last, so the final counters stay scrapeable
// through the drain. Every part is closed whatever the others return.
func (n *Node) Close() error {
	if n.Gossiper != nil {
		n.Gossiper.Stop()
	}
	var errs [3]error
	if n.Server != nil {
		errs[0] = n.Server.Close()
	}
	if n.Service != nil {
		errs[1] = n.Service.Close()
	}
	if n.Admin != nil {
		errs[2] = n.Admin.Close()
	}
	return errors.Join(errs[:]...)
}
