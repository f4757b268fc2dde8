package rationality_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/identity"
	"rationality/internal/node"
	"rationality/internal/numeric"
	"rationality/internal/proof"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// Example_federation walks the signed anti-entropy loop across an
// operator boundary: two verification authorities each hold a persistent
// Ed25519 identity, exchange public keys, and replicate verdict history
// with one signed pull round — every transferred verdict lands with the
// signing peer's identity as on-disk provenance. A third, rogue authority
// then tries to serve a delta with a key neither operator allowlisted and
// is rejected before a single record touches the log.
func Example_federation() {
	base, err := os.MkdirTemp("", "federation-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	// Key exchange happens before the services start: each operator runs
	// keygen (here: a seeded key written to the keyfile the authority
	// loads), publishes its party ID, and allowlists the other's. The
	// private keys never leave their dirs.
	alphaKey := writeKey(filepath.Join(base, "alpha"), 1)
	betaKey := writeKey(filepath.Join(base, "beta"), 2)
	fmt.Printf("operator alpha publishes party-id %s…\n", alphaKey.ID()[:16])
	fmt.Printf("operator beta  publishes party-id %s…\n", betaKey.ID()[:16])

	net := transport.NewPipeNet()
	defer net.Close()
	alpha := newAuthority(net, "alpha", filepath.Join(base, "alpha"), betaKey.ID())
	defer alpha.Close()
	beta := newAuthority(net, "beta", filepath.Join(base, "beta"), alphaKey.ID())
	defer beta.Close()

	// Alpha verifies an announcement; the verdict is persisted under
	// alpha's own identity.
	g, err := game.New("prisoners-dilemma", []int{2, 2})
	if err != nil {
		log.Fatal(err)
	}
	g.SetPayoffs(game.Profile{0, 0}, numeric.I(3), numeric.I(3))
	g.SetPayoffs(game.Profile{0, 1}, numeric.I(0), numeric.I(5))
	g.SetPayoffs(game.Profile{1, 0}, numeric.I(5), numeric.I(0))
	g.SetPayoffs(game.Profile{1, 1}, numeric.I(1), numeric.I(1))
	ann, err := core.AnnounceEnumeration("acme-games", g, proof.MaxNash)
	if err != nil {
		log.Fatal(err)
	}
	verdict, err := alpha.Service.VerifyAnnouncement(context.Background(), ann)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alpha verifies acme-games: accepted=%v\n", verdict.Accepted)

	// One signed pull round: beta offers its (empty) manifest, alpha
	// answers with a delta signed by its key, beta's gate verifies the
	// signature against the allowlist and ingests.
	applied, _, err := beta.Service.PullFrom(context.Background(), transport.DialInProc(alpha.Service))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("beta pulls from alpha: %d record(s) applied\n", applied)

	// Provenance: beta's copy names alpha as the authority that vouched.
	for _, svc := range []*service.Service{alpha.Service, beta.Service} {
		prov, err := svc.Provenance()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s provenance:\n", svc.ID())
		for origin, n := range prov {
			who := "unattributed"
			switch origin {
			case alphaKey.ID():
				who = "vouched by alpha"
			case betaKey.ID():
				who = "vouched by beta"
			}
			fmt.Printf("  %d verdict(s) %s (%s…)\n", n, who, origin[:16])
		}
	}

	// A rogue authority with a key nobody allowlisted serves a delta;
	// beta rejects it before ingest and counts the attempt. The rogue
	// must hold something beta lacks — a peer whose log fingerprints
	// match is in sync, and an exchange with it ends before any delta.
	writeKey(filepath.Join(base, "rogue"), 3)
	rogue := newAuthority(net, "rogue", filepath.Join(base, "rogue"))
	defer rogue.Close()
	fmt.Printf("rogue: signing identity %s…\n", rogue.Key.ID()[:16])
	g.SetPayoffs(game.Profile{1, 1}, numeric.I(2), numeric.I(2))
	rogueAnn, err := core.AnnounceEnumeration("acme-games", g, proof.MaxNash)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := rogue.Service.VerifyAnnouncement(context.Background(), rogueAnn); err != nil {
		log.Fatal(err)
	}
	_, _, err = beta.Service.PullFrom(context.Background(), transport.DialInProc(rogue.Service))
	fmt.Printf("beta rejects rogue's delta: %v\n", err)
	fed := beta.Service.Stats().Federation
	fmt.Printf("beta federation counters: trustedPeers=%d rejectedUnknown=%d accepted-from-alpha=%d\n",
		fed.TrustedPeers, fed.RejectedUnknown, fed.Peers[string(alphaKey.ID())].Records)
	// Output:
	// operator alpha publishes party-id 6f1581709bb7b1ef…
	// operator beta  publishes party-id 8ed90420802c83b4…
	// alpha verifies acme-games: accepted=true
	// beta pulls from alpha: 1 record(s) applied
	// alpha provenance:
	//   1 verdict(s) vouched by alpha (6f1581709bb7b1ef…)
	// beta provenance:
	//   1 verdict(s) vouched by alpha (6f1581709bb7b1ef…)
	// rogue: signing identity 11bba3ed1721948c…
	// beta rejects rogue's delta: service: sync-delta signer is not on this authority's peer allowlist: signer 11bba3ed1721948cefb4e50b0a0bb5cad8a6b52dc7b1a40f4f6652105c91e2c4 (peer "rogue")
	// beta federation counters: trustedPeers=1 rejectedUnknown=1 accepted-from-alpha=1
}

// writeKey is an operator's keygen with a fixed seed: it saves the
// identity to dir's keyfile, which the authority started on dir loads.
func writeKey(dir string, seed int64) *identity.KeyPair {
	k, err := identity.NewKeyPairFrom(rand.New(rand.NewSource(seed)))
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	if err := identity.SaveKeyFile(filepath.Join(dir, "identity.key"), k); err != nil {
		log.Fatal(err)
	}
	return k
}

// newAuthority runs `authority verifier -id id -persist dir -peer-keys
// peers` in-process: node.Start is the assembly behind that command, here
// listening on the in-memory network as id. The signing identity is the
// keyfile under dir.
func newAuthority(net *transport.PipeNet, id, dir string, peers ...identity.PartyID) *node.Node {
	cfg := node.Defaults()
	cfg.ID, cfg.Listen, cfg.Persist, cfg.PeerKeys = id, id, dir, peers
	n, err := node.Start(cfg, node.Pipe(net))
	if err != nil {
		log.Fatal(err)
	}
	return n
}
