package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"rationality/internal/identity"
)

// testPanel generates n signing identities and the ordered keyset a
// certificate over them is verified against.
func testPanel(t *testing.T, n int) ([]*identity.KeyPair, []identity.PartyID) {
	t.Helper()
	keys := make([]*identity.KeyPair, n)
	ids := make([]identity.PartyID, n)
	for i := range keys {
		k, err := identity.NewKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		keys[i], ids[i] = k, k.ID()
	}
	return keys, ids
}

// signCertificate builds a certificate co-signed by the given members of
// the panel (indexes into keys/keyset).
func signCertificate(t *testing.T, keys []*identity.KeyPair, keysetLen int, members []int, v Verdict) *Certificate {
	t.Helper()
	c := &Certificate{
		Key:     identity.DigestBytes([]byte("request")).String(),
		Verdict: v,
		Panel:   make([]byte, (keysetLen+7)/8),
	}
	digest, err := c.Digest()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range members {
		c.Panel[i/8] |= 1 << (i % 8)
		c.Sigs = append(c.Sigs, keys[i].Sign(digest))
	}
	return c
}

func TestCertificateVerify(t *testing.T) {
	keys, keyset := testPanel(t, 3)
	v := Verdict{Accepted: true, Format: FormatEnumeration}
	c := signCertificate(t, keys, len(keyset), []int{0, 1, 2}, v)
	if err := c.Verify(keyset, 0); err != nil {
		t.Fatalf("full-panel certificate rejected: %v", err)
	}
	// 2 of 3 misses the ⌊2n/3⌋+1 = 3 supermajority default...
	c2 := signCertificate(t, keys, len(keyset), []int{0, 2}, v)
	if err := c2.Verify(keyset, 0); !errors.Is(err, ErrCertificateRejected) {
		t.Fatalf("2-of-3 passed the supermajority default: %v", err)
	}
	// ...but an operator may relax the threshold explicitly.
	if err := c2.Verify(keyset, 2); err != nil {
		t.Fatalf("2-of-3 rejected under an explicit threshold of 2: %v", err)
	}
}

func TestCertificateRejectsTamperedVerdict(t *testing.T) {
	keys, keyset := testPanel(t, 3)
	c := signCertificate(t, keys, len(keyset), []int{0, 1, 2}, Verdict{Accepted: true, Format: FormatEnumeration})
	c.Verdict.Accepted = false // the CI smoke's "flipped verdict byte"
	err := c.Verify(keyset, 0)
	if !errors.Is(err, ErrCertificateRejected) {
		t.Fatalf("tampered verdict verified: %v", err)
	}
	if !strings.HasPrefix(err.Error(), "certificate rejected:") {
		t.Fatalf("rejection missing the documented prefix: %v", err)
	}
}

func TestCertificateRejectsForgedBitmap(t *testing.T) {
	keys, keyset := testPanel(t, 3)
	v := Verdict{Accepted: true, Format: FormatEnumeration}

	// A bit beyond the keyset: claims a 4th member of a 3-member panel.
	c := signCertificate(t, keys, len(keyset), []int{0, 1, 2}, v)
	c.Panel[0] |= 1 << 3
	if err := c.Verify(keyset, 0); !errors.Is(err, ErrCertificateRejected) {
		t.Fatalf("stray panel bit verified: %v", err)
	}

	// More named co-signers than attached signatures.
	c = signCertificate(t, keys, len(keyset), []int{0, 1}, v)
	c.Panel[0] |= 1 << 2
	if err := c.Verify(keyset, 0); !errors.Is(err, ErrCertificateRejected) {
		t.Fatalf("bitmap/signature count mismatch verified: %v", err)
	}

	// A wrong-length bitmap never indexes the keyset at all.
	c = signCertificate(t, keys, len(keyset), []int{0, 1, 2}, v)
	c.Panel = append(c.Panel, 0)
	if err := c.Verify(keyset, 0); !errors.Is(err, ErrCertificateRejected) {
		t.Fatalf("oversized bitmap verified: %v", err)
	}
}

func TestCertificateRejectsBelowThreshold(t *testing.T) {
	keys, keyset := testPanel(t, 3)
	c := signCertificate(t, keys, len(keyset), []int{1}, Verdict{Accepted: true, Format: FormatEnumeration})
	err := c.Verify(keyset, 0)
	if !errors.Is(err, ErrCertificateRejected) {
		t.Fatalf("1-of-3 certificate verified: %v", err)
	}
	if !strings.Contains(err.Error(), "threshold") {
		t.Fatalf("below-threshold rejection should name the threshold: %v", err)
	}
}

func TestCertificateRejectsWrongDigestSignature(t *testing.T) {
	keys, keyset := testPanel(t, 3)
	c := signCertificate(t, keys, len(keyset), []int{0, 1, 2}, Verdict{Accepted: true, Format: FormatEnumeration})
	// Member 1 signed something else entirely: a valid key, wrong digest.
	c.Sigs[1] = keys[1].Sign([]byte("not the certificate digest"))
	if err := c.Verify(keyset, 0); !errors.Is(err, ErrCertificateRejected) {
		t.Fatalf("wrong-digest co-signature verified: %v", err)
	}
}

func TestCertificateRejectsSignerOutsideKeyset(t *testing.T) {
	keys, keyset := testPanel(t, 3)
	stranger, _ := testPanel(t, 1)
	c := signCertificate(t, keys, len(keyset), []int{0, 1}, Verdict{Accepted: true, Format: FormatEnumeration})
	// Claim member 2's slot but sign with a key outside the panel.
	c.Panel[0] |= 1 << 2
	digest, err := c.Digest()
	if err != nil {
		t.Fatal(err)
	}
	c.Sigs = append(c.Sigs, stranger[0].Sign(digest))
	if err := c.Verify(keyset, 0); !errors.Is(err, ErrCertificateRejected) {
		t.Fatalf("outside-keyset co-signature verified: %v", err)
	}
}

func TestCertificateEncodeDecodeRoundTrip(t *testing.T) {
	keys, keyset := testPanel(t, 5)
	c := signCertificate(t, keys, len(keyset), []int{0, 2, 3, 4}, Verdict{Accepted: true, Format: FormatP1})
	data, err := EncodeCertificate(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCertificate(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(keyset, 0); err != nil {
		t.Fatalf("round-tripped certificate rejected: %v", err)
	}
	signers, err := back.CoSigners(keyset)
	if err != nil {
		t.Fatal(err)
	}
	if len(signers) != 4 || signers[0] != keyset[0] || signers[3] != keyset[4] {
		t.Fatalf("co-signers out of order: %v", signers)
	}
	// nil and empty round-trip to "no certificate", never an error.
	if data, err := EncodeCertificate(nil); err != nil || data != nil {
		t.Fatalf("nil certificate encoded to %q, %v", data, err)
	}
	if back, err := DecodeCertificate(nil); err != nil || back != nil {
		t.Fatalf("empty column decoded to %v, %v", back, err)
	}
	if _, err := DecodeCertificate([]byte("{not json")); !errors.Is(err, ErrCertificateRejected) {
		t.Fatalf("malformed encoding decoded: %v", err)
	}
}

func TestSupermajorityThreshold(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {2, 2}, {3, 3}, {4, 3}, {5, 4}, {6, 5}, {7, 5}, {9, 7}, {10, 7},
	} {
		if got := SupermajorityThreshold(tc.n); got != tc.want {
			t.Errorf("SupermajorityThreshold(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// pinnedKeyset is the panel that signed testdata/certificate-pd.json:
// identity.NewKeyPairFrom over 32 bytes of 0x01, 0x02 and 0x03. The
// certificate was minted by a build that still hashed json.Marshal's
// spelling of the verdict, and certifies the prisoner's dilemma
// enumeration announcement under the default threshold.
var pinnedKeyset = []identity.PartyID{
	"8a88e3dd7409f195fd52db2d3cba5d72ca6709bf1d94121bf3748801b40f6f5c",
	"8139770ea87d175f56a35466c34c7ecccb8d8a91b4ee37a25df60f5b8fc9b394",
	"ed4928c628d1c2c6eae90338905995612959273a5c63f93636c14614ac8737d1",
}

const pinnedDigest = "4b25dbb2bb1fea4c07db62e297769c271ee622d0c5d61a9dcb1e994d63ad6056"

// TestPinnedCertificateVerifies holds today's digest to the bytes an
// earlier build signed: a certificate already in a log or a client's
// hands must keep verifying, so the digest may not move.
func TestPinnedCertificateVerifies(t *testing.T) {
	data, err := os.ReadFile("testdata/certificate-pd.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(data []byte) error {
		c, err := DecodeCertificate(data)
		if err != nil {
			return err
		}
		if digest, err := c.Digest(); err != nil || hex.EncodeToString(digest) != pinnedDigest {
			return fmt.Errorf("digest %x (%v), pinned %s", digest, err, pinnedDigest)
		}
		return c.Verify(pinnedKeyset, 0)
	}
	if err := check(data); err != nil {
		t.Fatalf("pinned certificate: %v", err)
	}
	// The check is sharp to one byte of the verdict's details.
	tampered := bytes.Replace(data, []byte(`"steps":"4"`), []byte(`"steps":"5"`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("fixture has no steps detail to tamper with")
	}
	if check(tampered) == nil {
		t.Fatal("a certificate with one details byte changed still checks out")
	}
}

// certificateSpec is the acceptance rule written out plainly: the bitmap
// names exactly one seat per signature, at least threshold seats (⌊2n/3⌋+1
// when threshold ≤ 0), and every seat's key signed the digest.
func certificateSpec(keyset []identity.PartyID, threshold int, seats []int, sigs [][]byte, digest []byte) bool {
	if threshold <= 0 {
		threshold = 2*len(keyset)/3 + 1
	}
	if len(seats) != len(sigs) || len(seats) < threshold {
		return false
	}
	for i, seat := range seats {
		if seat >= len(keyset) || identity.Verify(keyset[seat], digest, sigs[i]) != nil {
			return false
		}
	}
	return true
}

// TestCertificateAcceptanceIsExhaustive compares Verify against
// certificateSpec on every seat subset of panels of 1 to 7 keys: signed
// honestly, with one signature over the wrong digest, with one by a
// foreign key, and with a bitmap whose bit count does not match the
// signatures — each under the default threshold and at the edge of the
// subset's size.
func TestCertificateAcceptanceIsExhaustive(t *testing.T) {
	keys, ids := testPanel(t, 8) // seats 0..6, and a foreign key 7
	foreign := keys[7]
	v := Verdict{Accepted: true, Format: FormatP1, Details: map[string]string{"x": "(1/2, 1/2)"}}
	key := identity.DigestBytes([]byte("request"))
	verdictJSON, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	digest := identity.CertificateDigest(key, verdictJSON)
	good, wrongDigest, byForeign := make([][]byte, 7), make([][]byte, 7), foreign.Sign(digest)
	for i := range good {
		good[i], wrongDigest[i] = keys[i].Sign(digest), keys[i].Sign([]byte("another digest"))
	}
	// A variant is the seats the bitmap names and the signatures attached.
	type variant struct {
		seats []int
		sigs  [][]byte
	}
	checked, accepted := 0, 0
	for n := 1; n <= 7; n++ {
		keyset := ids[:n]
		for subset := 0; subset < 1<<n; subset++ {
			var seats []int
			for s := 0; s < n; s++ {
				if subset&(1<<s) != 0 {
					seats = append(seats, s)
				}
			}
			honest := make([][]byte, len(seats))
			for i, s := range seats {
				honest[i] = good[s]
			}
			variants := []variant{{seats, honest}}
			if len(seats) > 0 {
				i := subset % len(seats) // the corrupted position walks the subset
				for _, bad := range [][]byte{wrongDigest[seats[i]], byForeign} {
					sigs := slices.Clone(honest)
					sigs[i] = bad
					variants = append(variants, variant{seats, sigs})
				}
				variants = append(variants, variant{seats, honest[1:]}) // a bit without its signature
			}
			if len(seats) < n {
				variants = append(variants, variant{seats, append(slices.Clone(honest), good[0])}) // a signature without its bit
			}
			for _, vr := range variants {
				c := &Certificate{Key: key.String(), Verdict: v, Panel: []byte{0}, Sigs: vr.sigs}
				for _, s := range vr.seats {
					c.Panel[0] |= 1 << s
				}
				// The default, and either side of the subset's own size.
				for _, threshold := range []int{0, len(vr.seats), len(vr.seats) + 1} {
					want := certificateSpec(keyset, threshold, vr.seats, vr.sigs, digest)
					err := c.Verify(keyset, threshold)
					if got := err == nil; got != want {
						t.Fatalf("n=%d seats=%v sigs=%d threshold=%d: Verify says %v (%v), the rule says %v",
							n, vr.seats, len(vr.sigs), threshold, got, err, want)
					}
					if err != nil && !errors.Is(err, ErrCertificateRejected) {
						t.Fatalf("rejection without the documented root: %v", err)
					}
					checked++
					if want {
						accepted++
					}
				}
			}
		}
	}
	if accepted == 0 || accepted == checked {
		t.Fatalf("%d of %d cases accepted: the sweep no longer splits", accepted, checked)
	}
}
