// Command federation walks the signed anti-entropy loop across an
// operator boundary: two verification authorities each hold a persistent
// Ed25519 identity, exchange public keys, and replicate verdict history
// with one signed pull round — every transferred verdict lands with the
// signing peer's identity as on-disk provenance. A third, rogue authority
// then tries to serve a delta with a key neither operator allowlisted and
// is rejected before a single record touches the log.
package main

import (
	"context"
	"fmt"
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

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "federation:", err)
		os.Exit(1)
	}
}

// newAuthority runs `authority verifier -id id -persist dir -peer-keys
// peers` in-process: node.Start is the assembly behind that command, here
// listening on the in-memory network as id. The signing identity is the
// keyfile under dir, created on first start.
func newAuthority(net *transport.PipeNet, id, dir string, peers ...identity.PartyID) (*node.Node, error) {
	cfg := node.Defaults()
	cfg.ID, cfg.Listen, cfg.Persist, cfg.PeerKeys = id, id, dir, peers
	return node.Start(cfg, node.Pipe(net))
}

func run() error {
	base, err := os.MkdirTemp("", "federation-example")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	// Key exchange happens before the services start: each operator runs
	// keygen (here: LoadOrCreateKeyFile), publishes its party ID, and
	// allowlists the other's. The private keys never leave their dirs.
	alphaKey, _, err := identity.LoadOrCreateKeyFile(filepath.Join(base, "alpha", "identity.key"))
	if err != nil {
		return err
	}
	betaKey, _, err := identity.LoadOrCreateKeyFile(filepath.Join(base, "beta", "identity.key"))
	if err != nil {
		return err
	}
	fmt.Printf("operator alpha publishes party-id %s…\n", alphaKey.ID()[:16])
	fmt.Printf("operator beta  publishes party-id %s…\n", betaKey.ID()[:16])

	net := transport.NewPipeNet()
	defer net.Close()
	alpha, err := newAuthority(net, "alpha", filepath.Join(base, "alpha"), betaKey.ID())
	if err != nil {
		return err
	}
	defer alpha.Close()
	beta, err := newAuthority(net, "beta", filepath.Join(base, "beta"), alphaKey.ID())
	if err != nil {
		return err
	}
	defer beta.Close()

	// Alpha verifies an announcement; the verdict is persisted under
	// alpha's own identity.
	g, err := game.New("prisoners-dilemma", []int{2, 2})
	if err != nil {
		return err
	}
	g.SetPayoffs(game.Profile{0, 0}, numeric.I(3), numeric.I(3))
	g.SetPayoffs(game.Profile{0, 1}, numeric.I(0), numeric.I(5))
	g.SetPayoffs(game.Profile{1, 0}, numeric.I(5), numeric.I(0))
	g.SetPayoffs(game.Profile{1, 1}, numeric.I(1), numeric.I(1))
	ann, err := core.AnnounceEnumeration("acme-games", g, proof.MaxNash)
	if err != nil {
		return err
	}
	verdict, err := alpha.Service.VerifyAnnouncement(context.Background(), ann)
	if err != nil {
		return err
	}
	fmt.Printf("alpha verifies acme-games: accepted=%v\n", verdict.Accepted)

	// One signed pull round: beta offers its (empty) manifest, alpha
	// answers with a delta signed by its key, beta's gate verifies the
	// signature against the allowlist and ingests.
	applied, _, err := beta.Service.PullFrom(context.Background(), transport.DialInProc(alpha.Service))
	if err != nil {
		return err
	}
	fmt.Printf("beta pulls from alpha: %d record(s) applied\n", applied)

	// Provenance: beta's copy names alpha as the authority that vouched.
	for _, svc := range []*service.Service{alpha.Service, beta.Service} {
		prov, err := svc.Provenance()
		if err != nil {
			return err
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
			fmt.Printf("  %d verdict(s) %s (%s…)\n", n, who, short(origin))
		}
	}

	// A rogue authority with a key nobody allowlisted serves a delta;
	// beta rejects it before ingest and counts the attempt. The rogue
	// must hold something beta lacks — a peer whose log fingerprints
	// match is in sync, and an exchange with it ends before any delta.
	rogue, err := newAuthority(net, "rogue", filepath.Join(base, "rogue"))
	if err != nil {
		return err
	}
	defer rogue.Close()
	fmt.Printf("rogue: created signing identity %s…\n", rogue.Key.ID()[:16])
	g.SetPayoffs(game.Profile{1, 1}, numeric.I(2), numeric.I(2))
	rogueAnn, err := core.AnnounceEnumeration("acme-games", g, proof.MaxNash)
	if err != nil {
		return err
	}
	if _, err := rogue.Service.VerifyAnnouncement(context.Background(), rogueAnn); err != nil {
		return err
	}
	if _, _, err := beta.Service.PullFrom(context.Background(), transport.DialInProc(rogue.Service)); err != nil {
		fmt.Printf("beta rejects rogue's delta: %v\n", err)
	} else {
		return fmt.Errorf("rogue delta was ingested — the allowlist gate failed")
	}
	fed := beta.Service.Stats().Federation
	fmt.Printf("beta federation counters: trustedPeers=%d rejectedUnknown=%d accepted-from-alpha=%d\n",
		fed.TrustedPeers, fed.RejectedUnknown, fed.Peers[string(alphaKey.ID())].Records)
	return nil
}

// short truncates a party ID for display.
func short(id identity.PartyID) string {
	if len(id) > 16 {
		return string(id)[:16]
	}
	return string(id)
}
