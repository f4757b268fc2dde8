// Command authority runs the rationality-authority parties as network
// processes, so a deployment can put the inventor, each verifier, and each
// agent on different machines:
//
//	# terminal 1: a verifier selling its procedures on :7101 through the
//	# concurrent service layer (8 procedure slots, 4096 cached verdicts)
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
//	# verify-stream exchange: each verdict arrives as its verification finishes
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
// The verifier is internal/node behind a flag set: the authority the
// gossip harness and Example_federation start in-process. It serves through
// internal/service (procedure slots, verdict cache, "verify-stream",
// "service-stats"); with -persist it warm-starts from its durable verdict
// log, serving every verdict it ever reached as a cache hit. On
// SIGINT/SIGTERM it drains — in-flight verifications finish — and prints
// the final service counters.
//
// Built-in demo games: pd (Prisoner's Dilemma, §3 enumeration proof),
// mp (Matching Pennies, §4 P1 supports), auction (the §5 participation game
// with the paper's parameters), and pd-forged (a dishonest inventor whose
// advice the verifiers must reject).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rationality/internal/bimatrix"
	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/identity"
	"rationality/internal/node"
	"rationality/internal/numeric"
	"rationality/internal/obs"
	"rationality/internal/participation"
	"rationality/internal/proof"
	"rationality/internal/quorum"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
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

// parseVerifier parses the verifier's command line into a node.Config,
// which node.Start validates: every flag binds a field, the three comma
// lists are split after parsing. The flag set comes back too, for tests.
func parseVerifier(args []string) (*flag.FlagSet, node.Config, error) {
	fs, c := flag.NewFlagSet("verifier", flag.ExitOnError), node.Defaults()
	var peers, peerKeys, panelKeys string
	fs.StringVar(&c.ID, "id", c.ID, "verifier identifier")
	fs.StringVar(&c.Listen, "listen", c.Listen, "listen address")
	fs.IntVar(&c.Workers, "workers", c.Workers, "max concurrent procedure executions (0 = GOMAXPROCS)")
	fs.IntVar(&c.CacheSize, "cache-size", c.CacheSize,
		"verdict-cache entries (negative disables caching)")
	fs.IntVar(&c.CacheShards, "cache-shards", c.CacheShards,
		"verdict-cache stripes (must be a power of two)")
	fs.StringVar(&c.Persist, "persist", c.Persist,
		"directory for the durable verdict store (empty disables persistence)")
	fs.IntVar(&c.SyncEvery, "sync-every", c.SyncEvery,
		"fsync the verdict log every n records (1 = sync every verdict)")
	fs.StringVar(&peers, "peers", "",
		"comma-separated peer verifier addresses to replicate verdict history with (requires -persist)")
	fs.DurationVar(&c.SyncInterval, "sync-interval", c.SyncInterval,
		"replication round cadence against -peers")
	fs.DurationVar(&c.SyncTimeout, "sync-timeout", c.SyncTimeout,
		"bound on one dial+exchange (independent of the cadence, so a short -sync-interval cannot make a large catch-up delta time out forever)")
	fs.DurationVar(&c.SyncBackoffMax, "sync-backoff-max", c.SyncBackoffMax,
		"cap on the per-peer exponential backoff between failed exchanges (a dead peer costs one dial per window, not one per tick)")
	fs.Float64Var(&c.SyncJitter, "sync-jitter", c.SyncJitter,
		"fraction by which the round cadence and backoff windows are randomized, so a fleet restarted together does not exchange in lockstep (0 disables)")
	fs.IntVar(&c.Fanout, "fanout", c.Fanout,
		"partners contacted per round (capped at the peer count): while it covers every peer each exchange is a signed pull; with more peers than fanout rounds are epidemic push-pull gossip, so a federation of n converges in O(log n) rounds at O(n·fanout) exchanges instead of O(n²)")
	fs.IntVar(&c.RumorTTL, "rumor-ttl", c.RumorTTL,
		"how many successful exchanges a fresh verdict is pushed eagerly before relying on anti-entropy (push-pull rounds only)")
	fs.Float64Var(&c.AuditRate, "audit-rate", c.AuditRate,
		"fraction of ingested peer records re-verified locally in the background (0 disables, 1 audits everything; a refuted record charges the vouching peer and is repaired; requires -persist)")
	fs.Float64Var(&c.QuarantineThreshold, "quarantine-threshold", c.QuarantineThreshold,
		"reputation below which a vouching peer is quarantined: its deltas are counted but refused and the sync loop stops dialing it (requires -persist)")
	fs.DurationVar(&c.Probation, "probation", c.Probation,
		"how long a quarantine lasts before the peer is allowed a probationary re-entry")
	fs.StringVar(&c.Key, "key", c.Key,
		"Ed25519 signing-identity keyfile; auto-generated at <persist>/identity.key when -persist is set and this is empty")
	fs.StringVar(&peerKeys, "peer-keys", "",
		"comma-separated hex public keys forming the federation allowlist: pulled sync-deltas must be signed by one of them (requires -persist; empty accepts any peer)")
	fs.StringVar(&panelKeys, "panel-keys", "",
		"ordered comma-separated hex public keys of the certificate panel: submitted or replicated quorum certificates must verify against this keyset (order is the bitmap index space, so every party must use the same list; empty stores certificates unverified)")
	fs.IntVar(&c.CertThreshold, "cert-threshold", c.CertThreshold,
		"minimum co-signatures a certificate needs to be accepted (0 = supermajority of -panel-keys)")
	fs.Float64Var(&c.AdmissionInteractive, "admission-interactive", c.AdmissionInteractive,
		"sustained interactive (single-verify) admission rate in verifications/s; burst defaults to 2x the rate; 0 leaves the interactive class unlimited (requires -admission-batch or itself >0 to enable the controller)")
	fs.Float64Var(&c.AdmissionBatch, "admission-batch", c.AdmissionBatch,
		"sustained batch/stream admission rate in items/s; a whole batch is admitted or shed atomically, and the batch class always sheds before interactive traffic does; 0 leaves the batch class unlimited")
	fs.StringVar(&c.Admin, "admin", c.Admin,
		"admin listen address for /metrics, /healthz, /readyz and /debug/pprof (empty disables the operator plane; keep it off the service port)")
	fs.BoolVar(&c.Byzantine, "byzantine", c.Byzantine,
		"invert every verdict (adversarial test double): without -persist a stateless liar on the wire; with -persist its lies are persisted, properly signed and vouched for, so honest peers can convict and quarantine it by evidence")
	if err := fs.Parse(args); err != nil {
		return fs, c, err
	}
	// Keys are parsed, and a malformed one refused, by service.New.
	c.Peers = splitNonEmpty[string](peers)
	c.PeerKeys, c.PanelKeys = splitNonEmpty[identity.PartyID](peerKeys), splitNonEmpty[identity.PartyID](panelKeys)
	// A zero interval steps the loop by hand (Gossiper.Round), which only
	// an embedder can do: from the command line it would never sync.
	if len(c.Peers) > 0 && c.SyncInterval == 0 {
		return fs, c, fmt.Errorf("-sync-interval must be positive, got %s", c.SyncInterval)
	}
	return fs, c, nil
}

// runVerifier serves one authority until SIGINT/SIGTERM, then drains it
// and prints the final counters.
func runVerifier(args []string) error {
	_, cfg, err := parseVerifier(args)
	if err != nil {
		return err
	}
	cfg.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	n, err := node.Start(cfg, node.TCP(cfg.SyncTimeout))
	if err != nil {
		return err
	}
	waitForSignal()
	fmt.Println("draining...")
	err = n.Close()
	// The final counters print whatever Close returned: they are the
	// evidence of what was (or wasn't) lost.
	obs.WriteText(os.Stdout, n.Service.Stats())
	return err
}

// dialVerifiers parses a comma-separated id=addr list and dials each
// address with a pooled TCP client. A malformed pair is an error; a member
// that cannot be dialed is reported on stderr and omitted — the panel
// treats it exactly like a member that stops answering mid-run (an
// abstainer) — and a panel with no member left is an error. The caller
// owns closing the returned clients (closeMembers), including on error.
func dialVerifiers(list string, timeout time.Duration, conns int) ([]quorum.Member, error) {
	var out []quorum.Member
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
		out = append(out, quorum.Member{ID: id, Client: c})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no panel member reachable")
	}
	return out, nil
}

// closeMembers closes the clients dialVerifiers opened.
func closeMembers(members []quorum.Member) {
	for _, m := range members {
		_ = m.Client.Close()
	}
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
// and dropping empty elements, so "-peers a, b," means [a b]. T names what
// the elements are: addresses, or party IDs.
func splitNonEmpty[T ~string](s string) []T {
	var out []T
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, T(part))
		}
	}
	return out
}

// call sends one msgType request over client, bounded by timeout, and
// decodes the reply into out.
func call(client transport.Client, timeout time.Duration, msgType string, payload, out any) error {
	req, err := transport.NewMessage(msgType, payload)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	resp, err := client.Call(ctx, req)
	if err != nil {
		return err
	}
	return resp.Decode(out)
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
	var pr service.ProvenanceResponse
	if err := call(client, *timeout, service.MsgProvenance, struct{}{}, &pr); err != nil {
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

	// A member down at dial time abstains instead of scuttling the whole
	// decision: fault tolerance is the point of consulting a quorum.
	members, err := dialVerifiers(*verifierList, *callTimeout, *conns)
	defer closeMembers(members)
	if err != nil {
		return err
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

// runBatch submits count copies of a built-in announcement as one
// verify-stream exchange — a load probe for the service layer. Verdicts
// arrive one frame at a time as items finish: the first-verdict line
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
		err := call(client, *timeout, service.MsgServiceStats, struct{}{}, &sr)
		return sr, err
	}
	sr, err := fetch()
	if err != nil {
		return err
	}
	fmt.Printf("verifier %q\n", sr.VerifierID)
	if *watch <= 0 {
		obs.WriteText(os.Stdout, sr.Stats)
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
		fmt.Println(obs.WatchRow(prev.Stats, cur.Stats, now.Sub(prevAt)))
		prev, prevAt = cur, now
		rows++
	}
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
