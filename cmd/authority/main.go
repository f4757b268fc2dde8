// Command authority runs the rationality-authority parties as network
// processes, so a deployment can put the inventor, each verifier, and each
// agent on different machines:
//
//	# terminal 1: a verifier selling its procedures on :7101 through the
//	# concurrent service layer (8 workers, 4096 cached verdicts)
//	authority verifier -id verify-corp -listen 127.0.0.1:7101 -workers 8 -cache-size 4096
//
//	# terminal 2: an inventor announcing a built-in demo game on :7100
//	authority inventor -game pd -listen 127.0.0.1:7100
//
//	# terminal 3: an agent consulting both — the panel (here of one)
//	# verifies the inventor's announcement before the agent acts on it
//	authority quorum -inventor 127.0.0.1:7100 -verifiers verify-corp=127.0.0.1:7101
//
//	# batch-verify 100 copies of a demo announcement over one
//	# verify-stream exchange: each verdict arrives as its worker finishes
//	authority batch -verifier 127.0.0.1:7101 -game pd -count 100
//
//	# inspect the verifier's live service counters
//	authority stats -verifier 127.0.0.1:7101
//
//	# watch live per-second rates (a top-style view over the same counters)
//	authority stats -verifier 127.0.0.1:7101 -watch 2s
//
//	# expose the operator plane: Prometheus /metrics, /healthz, /readyz
//	# and /debug/pprof on a separate admin listener
//	authority verifier -id verify-corp -listen 127.0.0.1:7101 -admin 127.0.0.1:9090
//
//	# fan one announcement out to a whole panel and majority-vote the
//	# verdicts (the paper's multi-verifier quorum), with a dissent report
//	authority quorum -game pd -verifiers a=127.0.0.1:7101,b=127.0.0.1:7102,c=127.0.0.1:7103
//
//	# replicate verdict history between verifiers: each interval the
//	# verifier exchanges with -fanout random -peers (default 2). While the
//	# fanout covers every peer that is a signed pull from each; with more
//	# peers than fanout it is epidemic push-pull gossip (fingerprints,
//	# rumors, signed deltas both ways), converging in O(log n) rounds
//	# instead of O(n²) exchanges
//	authority verifier -id a -listen 127.0.0.1:7101 -persist ./a \
//	    -peers 127.0.0.1:7102,127.0.0.1:7103 -sync-interval 30s
//
//	# federate across operator boundaries: each authority signs the deltas
//	# it serves with its on-disk Ed25519 identity (auto-generated in the
//	# persist dir, or keygen + -key), and -peer-keys allowlists whose
//	# signatures may be ingested — unsigned or unknown-signer deltas are
//	# rejected before they touch the log
//	authority keygen -key ./key-b    # prints the party-id to allowlist
//	authority verifier -id a -listen 127.0.0.1:7101 -persist ./a \
//	    -peers 127.0.0.1:7102 -peer-keys <b's party-id>
//
// The verifier serves through internal/service: a bounded worker pool
// (-workers), a content-addressed verdict cache with singleflight
// deduplication (-cache-size; negative disables caching), the streamed
// batch exchange ("verify-stream") and a stats endpoint ("service-stats").
// With -persist it keeps a durable verdict log and warm-starts from it: a
// restarted verifier serves every previously verified announcement as a
// cache hit without re-running any procedure (-sync-every tunes the
// fsync cadence). On SIGINT/SIGTERM it drains gracefully — in-flight
// verifications finish — and prints the final service counters.
//
// Built-in demo games: pd (Prisoner's Dilemma, §3 enumeration proof),
// mp (Matching Pennies, §4 P1 supports), auction (the §5 participation game
// with the paper's parameters), and pd-forged (a dishonest inventor whose
// advice the verifiers must reject).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"rationality/internal/bimatrix"
	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/gossip"
	"rationality/internal/identity"
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

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "inventor":
		err = runInventor(os.Args[2:])
	case "verifier":
		err = runVerifier(os.Args[2:])
	case "batch":
		err = runBatch(os.Args[2:])
	case "quorum":
		err = runQuorum(os.Args[2:])
	case "cert":
		err = runCert(os.Args[2:])
	case "keygen":
		err = runKeygen(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "provenance":
		err = runProvenance(os.Args[2:])
	case "p2-prover":
		err = runP2Prover(os.Args[2:])
	case "p2-verify":
		err = runP2Verify(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "authority:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: authority <inventor|verifier|batch|quorum|cert|keygen|stats|provenance> [flags]

  authority inventor -game <pd|mp|auction|pd-forged> -listen <addr> [-id <name>]
  authority verifier -id <name> -listen <addr> [-workers n] [-cache-size n] [-cache-shards n]
                     [-persist dir] [-sync-every n] [-peers addr,addr,...] [-sync-interval d] [-sync-timeout d]
                     [-sync-backoff-max d] [-sync-jitter x] [-key file] [-peer-keys hexkey,hexkey,...]
                     [-panel-keys hexkey,hexkey,...] [-cert-threshold n]
                     [-audit-rate x] [-quarantine-threshold x] [-probation d] [-admin addr]
                     [-fanout n] [-rumor-ttl n]
                     [-admission-interactive rate] [-admission-batch rate]
  authority keygen -key <file>                (create or load a signing identity; print its party ID)
  authority batch -verifier <addr> -game <pd|mp|auction|pd-forged> [-count n] [-conns n]
  authority quorum -verifiers <id=addr,id=addr,...> [-inventor <addr> | -game <name>]
                   [-call-timeout d] [-threshold x] [-conns n]
  authority cert issue -verifiers <id=addr,...> -keyset <hexkey,...> [-game <name>] [-threshold n]
                       [-out file] [-store addr]   (co-sign one verdict into a quorum certificate)
  authority cert verify (-cert file | -verifier <addr> -key <hex>) -keyset <hexkey,...> [-threshold n]
  authority cert show (-cert file | -verifier <addr> -key <hex>) [-keyset <hexkey,...>]
  authority stats -verifier <addr> [-conns n] [-watch d]
  authority provenance -verifier <addr> [-conns n]   (whose word the authority is serving, one line per peer)
  authority p2-prover -listen <addr>          (serve the §4 private proof for Matching Pennies)
  authority p2-verify -prover <addr> [-role row|col] [-seed n]`)
}

func runInventor(args []string) error {
	fs := flag.NewFlagSet("inventor", flag.ExitOnError)
	gameName := fs.String("game", "pd", "built-in game: pd, mp, auction, pd-forged")
	listen := fs.String("listen", "127.0.0.1:7100", "listen address")
	id := fs.String("id", "", "inventor identifier (defaults to honest/shady per game)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ann, err := buildAnnouncement(*gameName, *id)
	if err != nil {
		return err
	}
	svc, err := core.NewInventorService(ann)
	if err != nil {
		return err
	}
	srv, err := transport.ListenTCP(*listen, svc)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("inventor %q announcing %q (format %s) on %s\n",
		ann.InventorID, *gameName, ann.Format, srv.Addr())
	waitForSignal()
	return nil
}

func buildAnnouncement(gameName, id string) (core.Announcement, error) {
	switch gameName {
	case "pd":
		if id == "" {
			id = "honest-inventor"
		}
		return core.AnnounceEnumeration(id, game.PrisonersDilemma(), proof.MaxNash)
	case "pd-forged":
		if id == "" {
			id = "shady-inventor"
		}
		return core.AnnounceEnumerationForged(id, game.PrisonersDilemma(), game.Profile{0, 0})
	case "mp":
		if id == "" {
			id = "honest-inventor"
		}
		g := bimatrix.FromInts(
			[][]int64{{1, -1}, {-1, 1}},
			[][]int64{{-1, 1}, {1, -1}},
		)
		return core.AnnounceP1(id, "matching-pennies", g)
	case "auction":
		if id == "" {
			id = "auction-house"
		}
		g := participation.MustNew(3, 2, numeric.I(8), numeric.I(3))
		return core.AnnounceParticipation(id, "entry-game", g, participation.LowBranch)
	default:
		return core.Announcement{}, fmt.Errorf("unknown game %q", gameName)
	}
}

func runVerifier(args []string) error {
	fs := flag.NewFlagSet("verifier", flag.ExitOnError)
	id := fs.String("id", "verifier-1", "verifier identifier")
	listen := fs.String("listen", "127.0.0.1:7101", "listen address")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache-size", service.DefaultCacheSize,
		"verdict-cache entries (negative disables caching)")
	cacheShards := fs.Int("cache-shards", service.DefaultCacheShards,
		"verdict-cache stripes (must be a power of two)")
	persist := fs.String("persist", "",
		"directory for the durable verdict store (empty disables persistence)")
	syncEvery := fs.Int("sync-every", store.DefaultSyncEvery,
		"fsync the verdict log every n records (1 = sync every verdict)")
	peers := fs.String("peers", "",
		"comma-separated peer verifier addresses to replicate verdict history with (requires -persist)")
	syncInterval := fs.Duration("sync-interval", 30*time.Second,
		"replication round cadence against -peers")
	syncTimeout := fs.Duration("sync-timeout", time.Minute,
		"bound on one dial+exchange (independent of the cadence, so a short -sync-interval cannot make a large catch-up delta time out forever)")
	syncBackoffMax := fs.Duration("sync-backoff-max", gossip.DefaultBackoffMax,
		"cap on the per-peer exponential backoff between failed exchanges (a dead peer costs one dial per window, not one per tick)")
	syncJitter := fs.Float64("sync-jitter", gossip.DefaultJitter,
		"fraction by which the round cadence and backoff windows are randomized, so a fleet restarted together does not exchange in lockstep (0 disables)")
	fanout := fs.Int("fanout", gossip.DefaultFanout,
		"partners contacted per round (capped at the peer count): while it covers every peer each exchange is a signed pull; with more peers than fanout rounds are epidemic push-pull gossip, so a federation of n converges in O(log n) rounds at O(n·fanout) exchanges instead of O(n²)")
	rumorTTL := fs.Int("rumor-ttl", gossip.DefaultRumorTTL,
		"how many successful exchanges a fresh verdict is pushed eagerly before relying on anti-entropy (push-pull rounds only)")
	auditRate := fs.Float64("audit-rate", 0,
		"fraction of ingested peer records re-verified locally in the background (0 disables, 1 audits everything; a refuted record charges the vouching peer and is repaired; requires -persist)")
	quarThreshold := fs.Float64("quarantine-threshold", trust.DefaultThreshold,
		"reputation below which a vouching peer is quarantined: its deltas are counted but refused and the sync loop stops dialing it (requires -persist)")
	probation := fs.Duration("probation", trust.DefaultProbation,
		"how long a quarantine lasts before the peer is allowed a probationary re-entry")
	keyPath := fs.String("key", "",
		"Ed25519 signing-identity keyfile; auto-generated at <persist>/identity.key when -persist is set and this is empty")
	peerKeysFlag := fs.String("peer-keys", "",
		"comma-separated hex public keys forming the federation allowlist: pulled sync-deltas must be signed by one of them (requires -persist; empty accepts any peer)")
	panelKeysFlag := fs.String("panel-keys", "",
		"ordered comma-separated hex public keys of the certificate panel: submitted or replicated quorum certificates must verify against this keyset (order is the bitmap index space, so every party must use the same list; empty stores certificates unverified)")
	certThreshold := fs.Int("cert-threshold", 0,
		"minimum co-signatures a certificate needs to be accepted (0 = supermajority of -panel-keys)")
	admissionInteractive := fs.Float64("admission-interactive", 0,
		"sustained interactive (single-verify) admission rate in verifications/s; burst defaults to 2x the rate; 0 leaves the interactive class unlimited (requires -admission-batch or itself >0 to enable the controller)")
	admissionBatch := fs.Float64("admission-batch", 0,
		"sustained batch/stream admission rate in items/s; a whole batch is admitted or shed atomically, and the batch class always sheds before interactive traffic does; 0 leaves the batch class unlimited")
	admin := fs.String("admin", "",
		"admin listen address for /metrics, /healthz, /readyz and /debug/pprof (empty disables the operator plane; keep it off the service port)")
	byzantine := fs.Bool("byzantine", false,
		"invert every verdict (adversarial test double): without -persist a stateless liar on the wire; with -persist its lies are persisted, properly signed and vouched for, so honest peers can convict and quarantine it by evidence")
	if err := fs.Parse(args); err != nil {
		return err
	}
	peerAddrs := splitNonEmpty(*peers)
	if *fanout < 1 {
		return fmt.Errorf("-fanout must be at least 1, got %d", *fanout)
	}
	if *rumorTTL < 1 {
		return fmt.Errorf("-rumor-ttl must be at least 1, got %d", *rumorTTL)
	}
	if len(peerAddrs) > 0 {
		if *persist == "" {
			// Replication is of the durable log; without one there is
			// nothing to offer a peer and nowhere to keep what it sends.
			return fmt.Errorf("-peers requires -persist: anti-entropy replicates the durable verdict log")
		}
		if *syncInterval <= 0 {
			return fmt.Errorf("-sync-interval must be positive, got %s", *syncInterval)
		}
		if *syncTimeout <= 0 {
			return fmt.Errorf("-sync-timeout must be positive, got %s", *syncTimeout)
		}
	}
	if err := validateCacheShards(*cacheShards); err != nil {
		return err
	}
	// The cache caps shards at its capacity (every stripe must hold at
	// least one entry); honoring the "refused, not rounded" contract
	// means saying so instead of silently running with fewer stripes
	// than asked. Validate against the capacity the service will really
	// use: 0 means the default, not "no cache".
	effCacheSize := *cacheSize
	if effCacheSize == 0 {
		effCacheSize = service.DefaultCacheSize
	}
	if effCacheSize > 0 && *cacheShards > effCacheSize {
		return fmt.Errorf("-cache-shards (%d) cannot exceed the cache capacity (%d entries): every stripe needs at least one entry", *cacheShards, effCacheSize)
	}
	if err := validateSyncEvery(*syncEvery); err != nil {
		return err
	}
	peerKeys, err := parsePeerKeys(*peerKeysFlag)
	if err != nil {
		return err
	}
	var panelKeys []identity.PartyID
	for _, raw := range splitNonEmpty(*panelKeysFlag) {
		pk, err := identity.ParsePartyID(raw)
		if err != nil {
			return fmt.Errorf("-panel-keys: %w", err)
		}
		panelKeys = append(panelKeys, pk)
	}
	if *certThreshold != 0 && len(panelKeys) == 0 {
		return fmt.Errorf("-cert-threshold requires -panel-keys: the threshold counts co-signatures against the panel keyset")
	}
	if len(peerKeys) > 0 && *persist == "" {
		// The allowlist gates what anti-entropy may ingest into the
		// durable log; without a log there is nothing to gate, and a
		// configured-but-inert allowlist would read as security that
		// is not there.
		return fmt.Errorf("-peer-keys requires -persist: the allowlist gates ingestion into the durable verdict log")
	}
	if *keyPath != "" && *persist == "" {
		return fmt.Errorf("-key requires -persist: the signing identity exists to vouch for durable verdict history")
	}
	if *auditRate < 0 || *auditRate > 1 {
		return fmt.Errorf("-audit-rate must be in [0, 1], got %g", *auditRate)
	}
	if *admissionInteractive < 0 {
		return fmt.Errorf("-admission-interactive must be >= 0, got %g", *admissionInteractive)
	}
	if *admissionBatch < 0 {
		return fmt.Errorf("-admission-batch must be >= 0, got %g", *admissionBatch)
	}
	if *auditRate > 0 && *persist == "" {
		return fmt.Errorf("-audit-rate requires -persist: auditing re-executes the persisted verify request")
	}
	// A persisted verifier always runs with an on-disk signing identity:
	// -key names the file, or it lives in the persist dir by default and
	// is generated on first start. The printed party ID is what operators
	// hand to their peers' -peer-keys allowlists.
	var key *identity.KeyPair
	var keyCreated bool
	keyFile := *keyPath
	if keyFile == "" && *persist != "" {
		keyFile = filepath.Join(*persist, "identity.key")
	}
	if keyFile != "" {
		if key, keyCreated, err = identity.LoadOrCreateKeyFile(keyFile); err != nil {
			return err
		}
	}
	// The admin plane comes up before the service so liveness answers (and
	// /readyz honestly reports 503) while a large warm-start replay is
	// still running. Until service.New returns, the stats closure serves a
	// zero-valued tree through the nil-guarded atomic pointer.
	var live atomic.Pointer[service.Service]
	var ready *obs.Readiness
	var adminSrv *obs.Server
	if *admin != "" {
		gates := []string{obs.GateWarmStart}
		if len(peerAddrs) > 0 {
			// A peered verifier is not ready until it has completed one
			// anti-entropy exchange: before that it may be missing verdict
			// history its peers already hold.
			gates = append(gates, obs.GateFirstSync)
		}
		ready = obs.NewReadiness(gates...)
		if adminSrv, err = obs.NewServer(obs.ServerConfig{
			Addr: *admin,
			ID:   *id,
			Stats: func() service.Stats {
				if s := live.Load(); s != nil {
					return s.Stats()
				}
				return service.Stats{}
			},
			Readiness: ready,
		}); err != nil {
			return err
		}
		defer adminSrv.Close()
		fmt.Printf("admin: /metrics /healthz /readyz /debug/pprof on %s\n", adminSrv.Addr())
	}
	// The reputation registry is shared between the service (which charges
	// refuted vouchers through it) and the trust policy (which watches it
	// and quarantines); a persisted verifier always runs the policy, with
	// its state file next to the verdict log so a quarantine survives
	// restart.
	registry := reputation.NewRegistry()
	var pol *trust.Policy
	if *persist != "" {
		if pol, err = trust.New(trust.Config{
			Registry:  registry,
			Threshold: *quarThreshold,
			Probation: *probation,
			Path:      filepath.Join(*persist, "trust.json"),
			OnChange: func(peer string, from, to trust.State, detail string) {
				switch to {
				case trust.Quarantined:
					fmt.Printf("trust: peer %s quarantined: %s\n", peer, detail)
				case trust.Probation:
					fmt.Printf("trust: peer %s enters probation: %s\n", peer, detail)
				case trust.Active:
					fmt.Printf("trust: peer %s readmitted: %s\n", peer, detail)
				}
			},
		}); err != nil {
			return err
		}
	}
	var procs *core.ProcedureRegistry
	if *byzantine {
		procs = core.NewLyingProcedureRegistry()
	}
	svc, err := service.New(service.Config{
		ID:            *id,
		Workers:       *workers,
		CacheSize:     *cacheSize,
		CacheShards:   *cacheShards,
		Reputation:    registry,
		Procedures:    procs,
		PersistPath:   *persist,
		SyncEvery:     *syncEvery,
		Key:           key,
		PeerKeys:      peerKeys,
		PanelKeys:     panelKeys,
		CertThreshold: *certThreshold,
		Trust:         pol,
		AuditRate:     *auditRate,
		Admission: service.AdmissionConfig{
			InteractiveRate: *admissionInteractive,
			BatchRate:       *admissionBatch,
		},
	})
	if err != nil {
		return err
	}
	if adm := svc.Stats().Admission; adm != nil {
		fmt.Printf("admission: interactive rate=%g/s burst=%d, batch rate=%g/s burst=%d (batch sheds first)\n",
			adm.Interactive.Rate, adm.Interactive.Burst, adm.Batch.Rate, adm.Batch.Burst)
	}
	live.Store(svc)
	if ready != nil {
		// service.New returned, so any warm-start replay has finished and
		// the cache is as warm as the log can make it.
		ready.Mark(obs.GateWarmStart)
	}
	srv, err := transport.ListenTCP(*listen, svc)
	if err != nil {
		return err
	}
	st := svc.Stats()
	fmt.Printf("verifier %q serving %d formats on %s (workers=%d cache=%d shards=%d)\n",
		*id, len(svc.Formats()), srv.Addr(), st.Workers, *cacheSize, st.CacheShards)
	if st.Persistence != nil {
		fmt.Printf("persistence: %s (replayed %d verdicts, sync every %d, salvaged %d bytes)\n",
			*persist, st.Persistence.Replayed, *syncEvery, st.Persistence.SalvagedBytes)
	}
	if key != nil {
		verb := "loaded"
		if keyCreated {
			verb = "created"
		}
		fmt.Printf("federation: signing as %s (key %s, %s)\n", key.ID(), keyFile, verb)
	}
	if len(peerKeys) > 0 {
		fmt.Printf("federation: allowlisting %d peer keys; unsigned or unknown-signer deltas will be rejected\n", len(peerKeys))
	}
	if len(panelKeys) > 0 {
		thr := *certThreshold
		if thr == 0 {
			thr = core.SupermajorityThreshold(len(panelKeys))
		}
		fmt.Printf("certificates: verifying against a %d-member panel keyset (threshold %d)\n",
			len(panelKeys), thr)
	}
	if pol != nil {
		fmt.Printf("trust: quarantine below reputation %.2f, probation %s (state %s)\n",
			*quarThreshold, *probation, filepath.Join(*persist, "trust.json"))
	}
	if *auditRate > 0 {
		fmt.Printf("audit: re-verifying %.0f%% of ingested peer records in the background\n", *auditRate*100)
	}
	if *byzantine {
		fmt.Printf("verifier %q is BYZANTINE: every verdict inverted before it is served, persisted or vouched for\n", *id)
	}
	var stopSync func()
	if len(peerAddrs) > 0 {
		fmt.Printf("replication: %d peers every %s\n", len(peerAddrs), *syncInterval)
		// The engine's Jitter treats 0 as "use the default"; the flag's 0
		// means "disable", which the engine spells as negative.
		jitter := *syncJitter
		if jitter == 0 {
			jitter = -1
		}
		g, err := svc.StartGossiper(gossip.Config{
			Peers:      peerAddrs,
			Fanout:     *fanout,
			Interval:   *syncInterval,
			Jitter:     jitter,
			BackoffMax: *syncBackoffMax,
			RumorTTL:   *rumorTTL,
			Timeout:    *syncTimeout,
			Dial: func(addr string) (transport.Client, error) {
				return transport.DialTCP(addr, *syncTimeout)
			},
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
			OnRound: func(exchanged bool) {
				// first-sync flips on the first round with at least one
				// successful peer exchange; a round where every peer was
				// unreachable or rejected proves nothing was caught up on.
				if exchanged && ready != nil {
					ready.Mark(obs.GateFirstSync)
				}
			},
		})
		if err != nil {
			return err
		}
		stopSync = g.Stop
	}
	waitForSignal()
	// Graceful drain: stop accepting, let in-flight verifications finish,
	// then report the service counters.
	fmt.Println("draining...")
	if stopSync != nil {
		// The replication loop must stop before the service drains: an ingest
		// racing the store teardown would just fail with ErrServiceClosed,
		// but the shutdown log should not end on a spurious error line.
		stopSync()
	}
	// The service must be closed even when the listener teardown fails:
	// svc.Close is what drains and fsyncs the verdict store. And neither
	// error may swallow the other or the final counters — they are the
	// evidence of what was (or wasn't) lost.
	srvErr := srv.Close()
	svcErr := svc.Close()
	// The admin plane goes last: it keeps answering scrapes through the
	// drain, so the final counters are observable right up to exit. Close
	// is idempotent, so the deferred close above stays harmless.
	var adminErr error
	if adminSrv != nil {
		adminErr = adminSrv.Close()
	}
	printStats(svc.Stats())
	return errors.Join(srvErr, svcErr, adminErr)
}

// dialedVerifier is one entry of a parsed-and-dialed "-verifiers" list.
type dialedVerifier struct {
	id     string
	client transport.Client
}

// dialVerifiers parses a comma-separated id=addr list and dials each
// address with a pooled TCP client. A malformed pair is an error; a member
// that cannot be dialed is reported on stderr and omitted — the panel
// treats it exactly like a member that stops answering mid-run (an
// abstainer). The caller owns closing the returned clients, including on
// error.
func dialVerifiers(list string, timeout time.Duration, conns int) ([]dialedVerifier, error) {
	var out []dialedVerifier
	for _, pair := range strings.Split(list, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return out, fmt.Errorf("malformed verifier %q; want id=addr", pair)
		}
		c, err := transport.DialTCPPool(addr, timeout, conns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quorum: verifier %s unreachable, treating as abstained: %v\n", id, err)
			continue
		}
		out = append(out, dialedVerifier{id: id, client: c})
	}
	return out, nil
}

// parsePeerKeys parses the -peer-keys allowlist: each element must be a
// well-formed hex Ed25519 public key, refused loudly otherwise — a typo'd
// key would otherwise just never match a signer, which looks exactly like
// every peer misbehaving.
func parsePeerKeys(list string) ([]identity.PartyID, error) {
	var out []identity.PartyID
	for _, raw := range splitNonEmpty(list) {
		id, err := identity.ParsePartyID(raw)
		if err != nil {
			return nil, fmt.Errorf("-peer-keys: %w", err)
		}
		out = append(out, id)
	}
	return out, nil
}

// runKeygen creates (or loads) a signing identity keyfile and prints its
// party ID — the string an operator hands to peers for their -peer-keys
// allowlists. Re-running on an existing file is safe: it loads and
// reprints, never regenerates.
func runKeygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	keyPath := fs.String("key", "", "keyfile path to create or load")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keyPath == "" {
		return fmt.Errorf("keygen needs -key <file>")
	}
	k, created, err := identity.LoadOrCreateKeyFile(*keyPath)
	if err != nil {
		return err
	}
	verb := "loaded existing"
	if created {
		verb = "created"
	}
	fmt.Printf("keygen: %s %s\n", verb, *keyPath)
	fmt.Printf("party-id: %s\n", k.ID())
	return nil
}

// splitNonEmpty splits a comma-separated flag value, trimming whitespace
// and dropping empty elements, so "-peers a, b," means [a b].
func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runProvenance asks a running authority whose word it is serving: one
// greppable line per vouching peer, with the trust policy's standing.
func runProvenance(args []string) error {
	fs := flag.NewFlagSet("provenance", flag.ExitOnError)
	verifierAddr := fs.String("verifier", "127.0.0.1:7101", "verifier address")
	conns := fs.Int("conns", 1, "client connection-pool size")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client, err := transport.DialTCPPool(*verifierAddr, *timeout, *conns)
	if err != nil {
		return err
	}
	defer client.Close()
	req, err := transport.NewMessage(service.MsgProvenance, struct{}{})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	resp, err := client.Call(ctx, req)
	if err != nil {
		return err
	}
	var pr service.ProvenanceResponse
	if err := resp.Decode(&pr); err != nil {
		return err
	}
	signer := string(pr.Signer)
	if signer == "" {
		signer = "-"
	}
	fmt.Printf("verifier %q signer=%s peers=%d\n", pr.VerifierID, signer, len(pr.Peers))
	for _, p := range pr.Peers {
		id := string(p.ID)
		if id == "" {
			id = "(unattributed)"
		}
		state := p.State
		if state == "" {
			state = "untracked"
		}
		fmt.Printf("peer=%s records=%d state=%s reputation=%.3f refutations=%d\n",
			id, p.Records, state, p.Reputation, p.Refutations)
	}
	return nil
}

// runQuorum fans one announcement out to a panel of verifiers and
// majority-votes the verdicts — the multi-process face of
// internal/quorum. The announcement comes from a live inventor
// (-inventor) or is built locally (-game).
func runQuorum(args []string) error {
	fs := flag.NewFlagSet("quorum", flag.ExitOnError)
	inventorAddr := fs.String("inventor", "", "inventor address (empty: build -game locally)")
	gameName := fs.String("game", "pd", "built-in game announced locally when -inventor is empty")
	verifierList := fs.String("verifiers", "", "comma-separated id=addr pairs forming the panel")
	conns := fs.Int("conns", 1, "connection-pool size per verifier client")
	timeout := fs.Duration("timeout", 30*time.Second, "overall consultation timeout")
	callTimeout := fs.Duration("call-timeout", 10*time.Second, "per-verifier timeout (a slow member abstains)")
	threshold := fs.Float64("threshold", 0, "minimum reputation for a member to be consulted")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *verifierList == "" {
		return fmt.Errorf("quorum needs -verifiers id=addr[,id=addr...]")
	}

	var ann core.Announcement
	if *inventorAddr != "" {
		inv, err := transport.DialTCP(*inventorAddr, *timeout)
		if err != nil {
			return err
		}
		defer inv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		ann, err = core.FetchAnnouncement(ctx, inv)
		cancel()
		if err != nil {
			return err
		}
	} else {
		var err error
		if ann, err = buildAnnouncement(*gameName, ""); err != nil {
			return err
		}
	}

	// A panel member that is down at dial time abstains — exactly like
	// one that stops answering mid-run — instead of scuttling the whole
	// decision: fault tolerance is the point of consulting a quorum.
	dialed, err := dialVerifiers(*verifierList, *callTimeout, *conns)
	defer func() {
		for _, d := range dialed {
			_ = d.client.Close()
		}
	}()
	if err != nil {
		return err
	}
	if len(dialed) == 0 {
		return fmt.Errorf("no panel member reachable")
	}
	members := make([]quorum.Member, 0, len(dialed))
	for _, d := range dialed {
		members = append(members, quorum.Member{ID: d.id, Client: d.client})
	}

	registry := reputation.NewRegistry()
	q, err := quorum.New(quorum.Config{
		Members:     members,
		Registry:    registry,
		CallTimeout: *callTimeout,
		Threshold:   *threshold,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	res, err := q.VerifyAnnouncement(ctx, ann)
	if err != nil {
		return err
	}

	fmt.Printf("quorum verdict on %q (format %s): accepted=%v\n", ann.InventorID, ann.Format, res.Accepted)
	fmt.Printf("votes=%d dissents=%d abstained=%d\n", len(res.Votes), res.Dissents, len(res.Abstained))
	for _, v := range res.Votes {
		status := "accepted"
		if !v.Verdict.Accepted {
			status = "rejected: " + v.Verdict.Reason
		}
		stance := "agreed"
		if v.Dissented {
			stance = "DISSENTED"
		}
		fmt.Printf("  %-14s %-9s reputation=%.3f %s\n", v.VerifierID, stance, v.Reputation, status)
	}
	for _, id := range res.Abstained {
		fmt.Printf("  %-14s abstained (no reputation change)\n", id)
	}
	if !res.Accepted {
		fmt.Printf("inventor %q reported; reputation now %.3f\n",
			ann.InventorID, registry.Reputation(ann.InventorID))
	}
	return nil
}

// printStats renders the counters on stdout through the shared renderer —
// the same lines /metrics derives its families from, so the shutdown
// report and the stats subcommand cannot drift from the scrape.
func printStats(st service.Stats) {
	obs.WriteText(os.Stdout, st)
}

// validateCacheShards rejects shard counts the operator probably fat-
// fingered instead of silently rounding them: the cache's stripe selector
// is a power-of-two mask, so any other value would quietly become a
// different shard count than the one asked for.
func validateCacheShards(n int) error {
	if n <= 0 {
		return fmt.Errorf("-cache-shards must be a positive power of two, got %d", n)
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("-cache-shards must be a power of two (the stripe selector is a bit mask), got %d", n)
	}
	return nil
}

// validateSyncEvery rejects sync cadences that cannot mean anything: zero
// would never sync and negative is nonsense; both almost certainly hide a
// flag typo the operator should hear about before trusting durability.
func validateSyncEvery(n int) error {
	if n <= 0 {
		return fmt.Errorf("-sync-every must be at least 1 (fsync after every n-th record), got %d", n)
	}
	return nil
}

// runBatch submits count copies of a built-in announcement as one
// verify-stream exchange — a load probe for the service layer. Verdicts
// arrive one frame at a time as workers finish: the first-verdict line
// prints the moment frame zero lands (the number streaming exists to
// flatten), the trailer line sums up the exchange.
func runBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	verifierAddr := fs.String("verifier", "127.0.0.1:7101", "verifier address")
	gameName := fs.String("game", "pd", "built-in game: pd, mp, auction, pd-forged")
	count := fs.Int("count", 10, "announcements per batch (at least 1)")
	conns := fs.Int("conns", 1, "client connection-pool size")
	timeout := fs.Duration("timeout", 30*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *count < 1 {
		return fmt.Errorf("-count must be at least 1, got %d", *count)
	}
	ann, err := buildAnnouncement(*gameName, "")
	if err != nil {
		return err
	}
	anns := make([]core.Announcement, *count)
	for i := range anns {
		anns[i] = ann
	}
	client, err := transport.DialTCPPool(*verifierAddr, *timeout, *conns)
	if err != nil {
		return err
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	start := time.Now()
	first := true
	tr, err := service.StreamVerify(ctx, client, anns, func(service.StreamVerdict) error {
		if first {
			fmt.Printf("stream: first verdict after %s\n", time.Since(start))
			first = false
		}
		return nil
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("stream trailer: %d of %d from %s: accepted=%d rejected=%d truncated=%v in %s (server first-verdict %s)\n",
		tr.Delivered, tr.Items, tr.VerifierID, tr.Accepted, tr.Rejected, tr.Truncated, elapsed, tr.FirstVerdict)
	if tr.Truncated && tr.Reason != "" {
		fmt.Printf("stream truncated: %s\n", tr.Reason)
	}
	return nil
}

// runStats queries a running verifier's service counters: one-shot by
// default, or a live top-style view with -watch that polls on a cadence
// and prints per-second deltas until interrupted.
func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	verifierAddr := fs.String("verifier", "127.0.0.1:7101", "verifier address")
	conns := fs.Int("conns", 1, "client connection-pool size")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	watch := fs.Duration("watch", 0,
		"live view: re-poll every interval and print per-second rate deltas until interrupted (0 = print once and exit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client, err := transport.DialTCPPool(*verifierAddr, *timeout, *conns)
	if err != nil {
		return err
	}
	defer client.Close()
	fetch := func() (service.StatsResponse, error) {
		var sr service.StatsResponse
		req, err := transport.NewMessage(service.MsgServiceStats, struct{}{})
		if err != nil {
			return sr, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		resp, err := client.Call(ctx, req)
		if err != nil {
			return sr, err
		}
		err = resp.Decode(&sr)
		return sr, err
	}
	sr, err := fetch()
	if err != nil {
		return err
	}
	fmt.Printf("verifier %q\n", sr.VerifierID)
	if *watch <= 0 {
		printStats(sr.Stats)
		return nil
	}
	return watchStats(fetch, sr, *watch)
}

// watchStats is the -watch loop: each tick re-fetches the counters and
// prints one delta row (rates per second over the real elapsed window,
// not the nominal interval). The header reprints every screenful so a
// long session stays readable. A failed poll prints and keeps going —
// a verifier restart mid-watch shows up as a rate reset, not an exit —
// and SIGINT/SIGTERM end the watch cleanly.
func watchStats(fetch func() (service.StatsResponse, error), prev service.StatsResponse, interval time.Duration) error {
	const headerEvery = 20
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	prevAt := time.Now()
	for rows := 0; ; {
		select {
		case <-sig:
			return nil
		case <-ticker.C:
		}
		cur, err := fetch()
		now := time.Now()
		if err != nil {
			fmt.Fprintf(os.Stderr, "stats: %v\n", err)
			continue
		}
		if rows%headerEvery == 0 {
			fmt.Println(obs.WatchHeader())
		}
		fmt.Println(obs.DiffStats(prev.Stats, cur.Stats, now.Sub(prevAt)).Row())
		prev, prevAt = cur, now
		rows++
	}
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
