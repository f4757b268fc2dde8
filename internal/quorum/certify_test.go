package quorum

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// keyedService starts a persisted, keyed verification authority and
// returns it with its signing identity.
func keyedService(t *testing.T, id string) (*service.Service, identity.PartyID) {
	t.Helper()
	key, err := identity.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{ID: id, PersistPath: t.TempDir(), Key: key})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	return svc, key.ID()
}

// certPanel builds an n-member keyed panel plus its ordered keyset and a
// ready certifier.
func certPanel(t *testing.T, n int) ([]*service.Service, []identity.PartyID, *Certifier) {
	t.Helper()
	services := make([]*service.Service, n)
	keyset := make([]identity.PartyID, n)
	members := make([]Member, n)
	for i := range services {
		id := string(rune('a' + i))
		services[i], keyset[i] = keyedService(t, "panel-"+id)
		members[i] = Member{ID: "panel-" + id, Client: transport.DialInProc(services[i])}
	}
	cert, err := NewCertifier(CertifierConfig{Members: members, Keyset: keyset})
	if err != nil {
		t.Fatal(err)
	}
	return services, keyset, cert
}

func verifyRequestOf(t *testing.T, ann core.Announcement) core.VerifyRequest {
	t.Helper()
	return core.VerifyRequest{Format: ann.Format, Game: ann.Game, Advice: ann.Advice, Proof: ann.Proof}
}

// TestCertifyEndToEnd is the tentpole path: a three-member keyed panel
// co-signs one verdict, the assembled certificate verifies offline
// against the keyset alone, persists at a fourth non-panel authority, and
// is served back by one request — no live panel member involved.
func TestCertifyEndToEnd(t *testing.T) {
	panel, keyset, certifier := certPanel(t, 3)
	req := verifyRequestOf(t, pdAnnouncement(t))

	cert, err := certifier.Certify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Verdict.Accepted {
		t.Fatalf("panel rejected an honest proof: %+v", cert.Verdict)
	}
	// Offline verification: keyset only, no clients.
	if err := cert.Verify(keyset, 0); err != nil {
		t.Fatalf("offline verification failed: %v", err)
	}
	signers, err := cert.CoSigners(keyset)
	if err != nil {
		t.Fatal(err)
	}
	if len(signers) != 3 {
		t.Fatalf("co-signers = %d, want the full panel of 3", len(signers))
	}
	for _, svc := range panel {
		if got := svc.Stats().CertsCosigned; got != 1 {
			t.Fatalf("member co-sign counter = %d, want 1", got)
		}
	}

	// A fourth authority — configured with the panel keyset but not on the
	// panel — accepts the certificate and serves it from its cache.
	archive, err := service.New(service.Config{
		ID: "archive", PersistPath: t.TempDir(), PanelKeys: keyset,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer archive.Close()
	if err := archive.StoreCertificate(cert); err != nil {
		t.Fatal(err)
	}
	key, err := cert.KeyHash()
	if err != nil {
		t.Fatal(err)
	}
	served, found, err := archive.Certificate(key)
	if err != nil || !found {
		t.Fatalf("certificate not served back: found=%v err=%v", found, err)
	}
	if err := served.Verify(keyset, 0); err != nil {
		t.Fatalf("served certificate failed offline verification: %v", err)
	}
	st := archive.Stats()
	if st.CertsStored != 1 || st.CertsServed != 1 {
		t.Fatalf("archive cert counters = stored %d served %d, want 1/1", st.CertsStored, st.CertsServed)
	}
}

// TestCertifyDuplicateSigner wires the same keyed member behind two panel
// seats: its answers count as one signer, so a 3-seat panel with only 2
// distinct keys cannot reach the 3-signature supermajority.
func TestCertifyDuplicateSigner(t *testing.T) {
	svcA, idA := keyedService(t, "dup-a")
	svcB, idB := keyedService(t, "dup-b")
	stranger, err := identity.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	keyset := []identity.PartyID{idA, idB, stranger.ID()}
	certifier, err := NewCertifier(CertifierConfig{
		Members: []Member{
			{ID: "a", Client: transport.DialInProc(svcA)},
			{ID: "a-again", Client: transport.DialInProc(svcA)},
			{ID: "b", Client: transport.DialInProc(svcB)},
		},
		Keyset: keyset,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = certifier.Certify(context.Background(), verifyRequestOf(t, pdAnnouncement(t)))
	if !errors.Is(err, ErrCertification) {
		t.Fatalf("duplicate signer reached threshold: %v", err)
	}
	if !strings.Contains(err.Error(), "2 valid co-signatures") {
		t.Fatalf("duplicate co-signature not deduplicated: %v", err)
	}
}

// TestCertifyBelowThreshold fails enough members that the survivors
// cannot reach the supermajority.
func TestCertifyBelowThreshold(t *testing.T) {
	svc, id := keyedService(t, "lonely")
	stranger1, _ := identity.NewKeyPair()
	stranger2, _ := identity.NewKeyPair()
	certifier, err := NewCertifier(CertifierConfig{
		Members: []Member{
			{ID: "lonely", Client: transport.DialInProc(svc)},
			{ID: "down-1", Client: failingClient{}},
			{ID: "down-2", Client: failingClient{}},
		},
		Keyset: []identity.PartyID{id, stranger1.ID(), stranger2.ID()},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = certifier.Certify(context.Background(), verifyRequestOf(t, pdAnnouncement(t)))
	if !errors.Is(err, ErrCertification) {
		t.Fatalf("1-of-3 produced a certificate: %v", err)
	}
}

// TestCertifyRefusesATiedSplit seats two honest and two lying members
// under a threshold of 2: the true and the flipped verdict each gather
// two co-signatures. Certifying either would let map order choose the
// panel's word, so every call must fail and name the split.
func TestCertifyRefusesATiedSplit(t *testing.T) {
	members := make([]Member, 4)
	keyset := make([]identity.PartyID, 4)
	for i := range members {
		key, err := identity.NewKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		cfg := service.Config{ID: fmt.Sprintf("seat-%d", i), Key: key}
		if i >= 2 {
			cfg.Procedures = core.NewLyingProcedureRegistry()
		}
		svc, err := service.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = svc.Close() })
		members[i], keyset[i] = Member{ID: cfg.ID, Client: transport.DialInProc(svc)}, key.ID()
	}
	certifier, err := NewCertifier(CertifierConfig{Members: members, Keyset: keyset, Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	req := verifyRequestOf(t, pdAnnouncement(t))
	for i := 0; i < 20; i++ {
		cert, err := certifier.Certify(context.Background(), req)
		if !errors.Is(err, ErrCertification) {
			t.Fatalf("call %d: a 2-2 split was certified as accepted=%v (err %v)", i, cert != nil && cert.Verdict.Accepted, err)
		}
		if !strings.Contains(err.Error(), "split [2 2]") {
			t.Fatalf("call %d: the error does not name the split: %v", i, err)
		}
	}
}

// wrongDigestHandler relays cosign responses but replaces the signature
// with one over unrelated bytes — a member that signs the wrong digest.
type wrongDigestHandler struct {
	inner transport.Handler
	key   *identity.KeyPair
}

func (w wrongDigestHandler) Handle(ctx context.Context, req transport.Message) (transport.Message, error) {
	resp, err := w.inner.Handle(ctx, req)
	if err != nil || req.Type != service.MsgCoSign {
		return resp, err
	}
	var cr service.CoSignResponse
	if err := resp.Decode(&cr); err != nil {
		return transport.Message{}, err
	}
	cr.Signature = w.key.Sign([]byte("the wrong digest entirely"))
	return transport.NewMessage(service.MsgCoSigned, cr)
}

// TestCertifyWrongDigestSignature rejects a co-signature over the wrong
// bytes even though the signing key is a legitimate panel member's.
func TestCertifyWrongDigestSignature(t *testing.T) {
	services, keyset, _ := certPanel(t, 3)
	badKey, err := identity.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	certifier, err := NewCertifier(CertifierConfig{
		Members: []Member{
			{ID: "good-a", Client: transport.DialInProc(services[0])},
			{ID: "good-b", Client: transport.DialInProc(services[1])},
			{ID: "bad", Client: transport.DialInProc(wrongDigestHandler{inner: services[2], key: badKey})},
		},
		Keyset: keyset,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = certifier.Certify(context.Background(), verifyRequestOf(t, pdAnnouncement(t)))
	if !errors.Is(err, ErrCertification) {
		t.Fatalf("wrong-digest signature counted toward the threshold: %v", err)
	}
	if !strings.Contains(err.Error(), "2 valid co-signatures") {
		t.Fatalf("expected exactly the two honest co-signatures to survive: %v", err)
	}
}

// TestCertifyKeysetMismatch runs a panel whose third member signs with a
// key outside the configured keyset: its (valid) co-signature is
// discarded, because no offline client could ever check it.
func TestCertifyKeysetMismatch(t *testing.T) {
	services, keyset, _ := certPanel(t, 3)
	outsider, outsiderID := keyedService(t, "outsider")
	certifier, err := NewCertifier(CertifierConfig{
		Members: []Member{
			{ID: "good-a", Client: transport.DialInProc(services[0])},
			{ID: "good-b", Client: transport.DialInProc(services[1])},
			{ID: "outsider", Client: transport.DialInProc(outsider)},
		},
		Keyset: keyset, // outsiderID is NOT in here
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = certifier.Certify(context.Background(), verifyRequestOf(t, pdAnnouncement(t)))
	if !errors.Is(err, ErrCertification) {
		t.Fatalf("keyset-mismatched signer counted toward the threshold: %v", err)
	}

	// With an explicit threshold of 2 the two in-keyset members suffice —
	// and the assembled certificate must not mention the outsider.
	certifier2, err := NewCertifier(CertifierConfig{
		Members: []Member{
			{ID: "good-a", Client: transport.DialInProc(services[0])},
			{ID: "good-b", Client: transport.DialInProc(services[1])},
			{ID: "outsider", Client: transport.DialInProc(outsider)},
		},
		Keyset:    keyset,
		Threshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := certifier2.Certify(context.Background(), verifyRequestOf(t, pdAnnouncement(t)))
	if err != nil {
		t.Fatal(err)
	}
	signers, err := cert.CoSigners(keyset)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range signers {
		if s == outsiderID {
			t.Fatal("outsider's signature leaked into the certificate")
		}
	}
	if err := cert.Verify(keyset, 2); err != nil {
		t.Fatalf("2-of-3 certificate failed offline verification: %v", err)
	}
}

// TestCertificateRejectedAtStore submits tampered certificates to an
// authority configured with the panel keyset: a flipped verdict byte and
// a forged panel bitmap are both refused with the documented
// "certificate rejected:" error and counted.
func TestCertificateRejectedAtStore(t *testing.T) {
	_, keyset, certifier := certPanel(t, 3)
	cert, err := certifier.Certify(context.Background(), verifyRequestOf(t, pdAnnouncement(t)))
	if err != nil {
		t.Fatal(err)
	}
	archive, err := service.New(service.Config{
		ID: "archive", PersistPath: t.TempDir(), PanelKeys: keyset,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer archive.Close()

	flipped := *cert
	flipped.Verdict.Accepted = !flipped.Verdict.Accepted
	if err := archive.StoreCertificate(&flipped); !errors.Is(err, core.ErrCertificateRejected) {
		t.Fatalf("tampered verdict stored: %v", err)
	}
	forged := *cert
	forged.Panel = append([]byte(nil), cert.Panel...)
	forged.Panel[0] ^= 1 << 1 // claim a different co-signer set
	if err := archive.StoreCertificate(&forged); !errors.Is(err, core.ErrCertificateRejected) {
		t.Fatalf("forged bitmap stored: %v", err)
	}
	if got := archive.Stats().CertsRejected; got != 2 {
		t.Fatalf("certsRejected = %d, want 2", got)
	}
	// The untampered original still lands.
	if err := archive.StoreCertificate(cert); err != nil {
		t.Fatal(err)
	}
}

// TestIngestStripsBadCertificate sends a record whose carried certificate
// fails keyset verification through the ingest gate: the verdict merges,
// the certificate does not survive, and the rejection is counted.
func TestIngestStripsBadCertificate(t *testing.T) {
	_, keyset, certifier := certPanel(t, 3)
	cert, err := certifier.Certify(context.Background(), verifyRequestOf(t, pdAnnouncement(t)))
	if err != nil {
		t.Fatal(err)
	}
	cert.Verdict.Reason = "tampered after signing"
	source, err := service.New(service.Config{ID: "source", PersistPath: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer source.Close()
	if err := source.StoreCertificate(cert); err != nil {
		t.Fatal(err) // unkeyed authority: stores it blind
	}

	sink, err := service.New(service.Config{
		ID: "sink", PersistPath: t.TempDir(), PanelKeys: keyset,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if _, _, err := sink.PullFrom(context.Background(), transport.DialInProc(source)); err != nil {
		t.Fatal(err)
	}
	key, err := cert.KeyHash()
	if err != nil {
		t.Fatal(err)
	}
	if _, found, _ := sink.Certificate(key); found {
		t.Fatal("tampered certificate survived the ingest gate")
	}
	if got := sink.Stats().CertsRejected; got != 1 {
		t.Fatalf("certsRejected = %d, want 1", got)
	}
}

// paddedVerdictHandler relays cosign responses with the verdict respelled
// — a space after its opening brace, the same JSON value — and signed
// under key over exactly those bytes: a valid signature over a spelling no
// certificate can carry, since a certificate's digest is checked against
// AppendJSON's bytes.
type paddedVerdictHandler struct {
	inner transport.Handler
	key   *identity.KeyPair
}

func (p paddedVerdictHandler) Handle(ctx context.Context, req transport.Message) (transport.Message, error) {
	resp, err := p.inner.Handle(ctx, req)
	if err != nil || req.Type != service.MsgCoSign {
		return resp, err
	}
	var cr service.CoSignResponse
	if err := resp.Decode(&cr); err != nil {
		return transport.Message{}, err
	}
	key, err := identity.ParseHash(cr.Key)
	if err != nil {
		return transport.Message{}, err
	}
	padded := append([]byte("{ "), cr.Verdict[1:]...)
	sig := p.key.Sign(identity.CertificateDigest(key, padded))
	// Spelled by hand: json.Marshal would compact the padding away.
	fields := make([][]byte, 4)
	for i, v := range []any{"padded", p.key.ID(), cr.Key, sig} {
		if fields[i], err = json.Marshal(v); err != nil {
			return transport.Message{}, err
		}
	}
	payload := fmt.Sprintf(`{"verifierId":%s,"signer":%s,"key":%s,"verdict":%s,"signature":%s}`,
		fields[0], fields[1], fields[2], padded, fields[3])
	return transport.Message{Type: service.MsgCoSigned, Payload: json.RawMessage(payload)}, nil
}

// TestCertifyLeavesOutNonCanonicalVerdicts: two members answer with a
// whitespace-padded spelling of the verdict and valid signatures over it.
// The coordinator groups by the bytes it received, so counted they would
// tie the two honest members; they are left out instead, and the
// certificate carries exactly the honest pair.
func TestCertifyLeavesOutNonCanonicalVerdicts(t *testing.T) {
	services, keyset, _ := certPanel(t, 2)
	members := []Member{
		{ID: "honest-a", Client: transport.DialInProc(services[0])},
		{ID: "honest-b", Client: transport.DialInProc(services[1])},
	}
	for i := range services {
		key, err := identity.NewKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		keyset = append(keyset, key.ID())
		members = append(members, Member{ID: fmt.Sprintf("padded-%d", i),
			Client: transport.DialInProc(paddedVerdictHandler{inner: services[i], key: key})})
	}
	certifier, err := NewCertifier(CertifierConfig{Members: members, Keyset: keyset, Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := certifier.Certify(context.Background(), verifyRequestOf(t, pdAnnouncement(t)))
	if err != nil {
		t.Fatalf("the honest pair was not certified: %v", err)
	}
	if len(cert.Panel) != 1 || cert.Panel[0] != 0b0011 || len(cert.Sigs) != 2 {
		t.Fatalf("certificate signers %08b (%d signatures), want exactly the honest pair 00000011", cert.Panel, len(cert.Sigs))
	}
}
