package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/quorum"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// The cert subcommand is the CoSi-style certificate workflow end to end:
//
//	# issue: fan one request out to the panel, collect co-signatures,
//	# assemble the certificate, and (optionally) persist it at an authority
//	authority cert issue -verifiers a=:7101,b=:7102,c=:7103 \
//	    -keyset <idA>,<idB>,<idC> -game pd -out cert.json -store 127.0.0.1:7104
//
//	# verify: fetch the certificate with ONE request (no live panel
//	# member needed) and check its co-signatures against the known keyset
//	authority cert verify -verifier 127.0.0.1:7104 -key <hex> -keyset <idA>,<idB>,<idC>
//
//	# or verify a certificate file fully offline
//	authority cert verify -cert cert.json -keyset <idA>,<idB>,<idC>
//
//	# show: print the certificate's verdict, panel bitmap and co-signers
//	authority cert show -cert cert.json -keyset <idA>,<idB>,<idC>
//
// Verification failures print the canonical "certificate rejected: ..."
// line and exit nonzero — the line the CI certificate smoke greps.
func runCert(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("cert needs a verb: issue, verify or show")
	}
	switch args[0] {
	case "issue":
		return runCertIssue(args[1:])
	case "verify":
		return runCertVerify(args[1:])
	case "show":
		return runCertShow(args[1:])
	default:
		return fmt.Errorf("unknown cert verb %q: want issue, verify or show", args[0])
	}
}

// parseKeyset parses the ordered -keyset list. Order is the certificate
// bitmap's index space, so it must match what every other party uses.
func parseKeyset(list string) ([]identity.PartyID, error) {
	var out []identity.PartyID
	for _, raw := range splitNonEmpty[string](list) {
		id, err := identity.ParsePartyID(raw)
		if err != nil {
			return nil, fmt.Errorf("-keyset: %w", err)
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cert needs -keyset <hexkey,hexkey,...> (the ordered panel keyset)")
	}
	return out, nil
}

// runCertIssue runs the coordinator: one panel fan-out, one certificate.
func runCertIssue(args []string) error {
	fs := flag.NewFlagSet("cert issue", flag.ExitOnError)
	verifierList := fs.String("verifiers", "", "comma-separated id=addr pairs forming the co-signing panel")
	keysetList := fs.String("keyset", "", "ordered comma-separated hex panel keys (the bitmap index space)")
	gameName := fs.String("game", "pd", "built-in game: pd, mp, auction, pd-forged")
	threshold := fs.Int("threshold", 0, "minimum co-signatures (0 = supermajority of the keyset)")
	out := fs.String("out", "", "write the certificate JSON to this file (default stdout)")
	storeAddr := fs.String("store", "", "also submit the certificate to this authority (cert-put)")
	conns := fs.Int("conns", 1, "connection-pool size per panel client")
	timeout := fs.Duration("timeout", 30*time.Second, "overall fan-out timeout")
	callTimeout := fs.Duration("call-timeout", 10*time.Second, "per-member timeout (a slow member is left out)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *verifierList == "" {
		return fmt.Errorf("cert issue needs -verifiers id=addr[,id=addr...]")
	}
	keyset, err := parseKeyset(*keysetList)
	if err != nil {
		return err
	}
	ann, err := buildAnnouncement(*gameName, "")
	if err != nil {
		return err
	}
	members, err := dialVerifiers(*verifierList, *callTimeout, *conns)
	defer closeMembers(members)
	if err != nil {
		return err
	}
	certifier, err := quorum.NewCertifier(quorum.CertifierConfig{
		Members:     members,
		Keyset:      keyset,
		Threshold:   *threshold,
		CallTimeout: *callTimeout,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	cert, err := certifier.Certify(ctx, core.VerifyRequest{
		Format: ann.Format, Game: ann.Game, Advice: ann.Advice, Proof: ann.Proof,
	})
	if err != nil {
		return err
	}
	signers, err := cert.CoSigners(keyset)
	if err != nil {
		return err
	}
	fmt.Printf("certificate issued: key=%s accepted=%v cosigners=%d/%d threshold=%d\n",
		cert.Key, cert.Verdict.Accepted, len(signers), len(keyset), certifier.Threshold())
	encoded, err := json.MarshalIndent(cert, "", "  ")
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(encoded, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("certificate written to %s\n", *out)
	} else {
		fmt.Println(string(encoded))
	}
	if *storeAddr != "" {
		client, err := transport.DialTCP(*storeAddr, *timeout)
		if err != nil {
			return err
		}
		defer client.Close()
		var receipt service.CertPutResponse
		if err := call(client, *timeout, service.MsgCertPut, service.CertPutRequest{Certificate: *cert}, &receipt); err != nil {
			return fmt.Errorf("submitting certificate to %s: %w", *storeAddr, err)
		}
		fmt.Printf("certificate stored at %q\n", receipt.VerifierID)
	}
	return nil
}

// loadCert resolves the certificate a verify/show invocation names:
// either a local file (-cert, fully offline) or one cert-get request
// against an authority (-verifier plus -key) — the single round trip the
// offline trust model costs.
func loadCert(certPath, verifierAddr, keyHex string, timeout time.Duration) (*core.Certificate, error) {
	switch {
	case certPath != "" && verifierAddr != "":
		return nil, fmt.Errorf("pass -cert or -verifier, not both")
	case certPath != "":
		raw, err := os.ReadFile(certPath)
		if err != nil {
			return nil, err
		}
		c, err := core.DecodeCertificate(raw)
		if err != nil {
			return nil, err
		}
		if c == nil {
			return nil, fmt.Errorf("%s holds no certificate", certPath)
		}
		return c, nil
	case verifierAddr != "":
		if keyHex == "" {
			return nil, fmt.Errorf("-verifier needs -key <hex verdict key>")
		}
		client, err := transport.DialTCP(verifierAddr, timeout)
		if err != nil {
			return nil, err
		}
		defer client.Close()
		var cr service.CertGetResponse
		if err := call(client, timeout, service.MsgCertGet, service.CertGetRequest{Key: keyHex}, &cr); err != nil {
			return nil, err
		}
		if !cr.Found || cr.Certificate == nil {
			return nil, fmt.Errorf("authority %q holds no certificate for key %s", cr.VerifierID, keyHex)
		}
		return cr.Certificate, nil
	default:
		return nil, fmt.Errorf("cert needs -cert <file> or -verifier <addr> -key <hex>")
	}
}

// runCertVerify checks a certificate's co-signatures against the known
// panel keyset — locally, with no live panel member involved.
func runCertVerify(args []string) error {
	fs := flag.NewFlagSet("cert verify", flag.ExitOnError)
	certPath := fs.String("cert", "", "certificate JSON file to verify offline")
	verifierAddr := fs.String("verifier", "", "authority to fetch the certificate from (one cert-get request)")
	keyHex := fs.String("key", "", "hex verdict key to fetch (requires -verifier)")
	keysetList := fs.String("keyset", "", "ordered comma-separated hex panel keys")
	threshold := fs.Int("threshold", 0, "minimum co-signatures (0 = supermajority of the keyset)")
	timeout := fs.Duration("timeout", 10*time.Second, "fetch timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	keyset, err := parseKeyset(*keysetList)
	if err != nil {
		return err
	}
	cert, err := loadCert(*certPath, *verifierAddr, *keyHex, *timeout)
	if err != nil {
		return err
	}
	if err := cert.Verify(keyset, *threshold); err != nil {
		return err
	}
	signers, err := cert.CoSigners(keyset)
	if err != nil {
		return err
	}
	fmt.Printf("certificate OK: key=%s accepted=%v cosigners=%d/%d\n",
		cert.Key, cert.Verdict.Accepted, len(signers), len(keyset))
	return nil
}

// runCertShow prints a certificate's contents: verdict, panel bitmap and
// the co-signing identities, without judging validity (use verify).
func runCertShow(args []string) error {
	fs := flag.NewFlagSet("cert show", flag.ExitOnError)
	certPath := fs.String("cert", "", "certificate JSON file to read")
	verifierAddr := fs.String("verifier", "", "authority to fetch the certificate from (one cert-get request)")
	keyHex := fs.String("key", "", "hex verdict key to fetch (requires -verifier)")
	keysetList := fs.String("keyset", "", "ordered comma-separated hex panel keys (resolves bitmap bits to identities)")
	timeout := fs.Duration("timeout", 10*time.Second, "fetch timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cert, err := loadCert(*certPath, *verifierAddr, *keyHex, *timeout)
	if err != nil {
		return err
	}
	fmt.Printf("key: %s\n", cert.Key)
	fmt.Printf("verdict: accepted=%v format=%s", cert.Verdict.Accepted, cert.Verdict.Format)
	if cert.Verdict.Reason != "" {
		fmt.Printf(" reason=%q", cert.Verdict.Reason)
	}
	fmt.Println()
	bits := make([]string, 0, len(cert.Panel)*8)
	for i := range cert.Panel {
		for b := 0; b < 8; b++ {
			if cert.Panel[i]&(1<<b) != 0 {
				bits = append(bits, fmt.Sprintf("%d", i*8+b))
			}
		}
	}
	fmt.Printf("panel bits: [%s] signatures: %d\n", strings.Join(bits, " "), len(cert.Sigs))
	if *keysetList != "" {
		keyset, err := parseKeyset(*keysetList)
		if err != nil {
			return err
		}
		signers, err := cert.CoSigners(keyset)
		if err != nil {
			return err
		}
		for _, s := range signers {
			fmt.Printf("cosigner: %s\n", s)
		}
	}
	return nil
}
