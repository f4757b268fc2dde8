package core

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"

	"rationality/internal/identity"
)

// Aggregate quorum certificates (CoSi-style collective signing): the
// coordinator runs the panel fan-out once, each member co-signs the
// canonical verdict digest, and the resulting certificate is a portable
// artifact any client verifies offline — one request to any authority
// that caches it, then pure signature checks against the known panel
// keyset. This replaces O(panel) client round-trips with O(1), while the
// supermajority threshold keeps the Byzantine-agreement guarantee: a
// certificate attests that at least ⌊2n/3⌋+1 of the n known panel keys
// signed this exact verdict for this exact request.

// ErrCertificateRejected is the root of every certificate verification
// failure. All rejection messages begin with "certificate rejected:" —
// the documented greppable prefix clients and the CI smoke assert on.
var ErrCertificateRejected = errors.New("certificate rejected")

// Certificate is a quorum-certified verdict: the request's content
// address, the verdict the panel agreed on, a bitmap naming which members
// of the ordered panel keyset co-signed, and their Ed25519 signatures
// over the canonical certificate digest. It marshals to JSON for the wire
// and persists verbatim as a first-class store record column.
type Certificate struct {
	// Key is the hex content address of the certified request — the same
	// digest the verdict cache and the durable store are keyed by.
	Key string `json:"key"`
	// Verdict is the verdict the co-signers certified.
	Verdict Verdict `json:"verdict"`
	// Panel is the co-signer bitmap over the ordered panel keyset:
	// bit i (byte i/8, mask 1<<(i%8)) set means keyset[i] co-signed.
	Panel []byte `json:"panel"`
	// Sigs holds one Ed25519 co-signature per set Panel bit, in ascending
	// bit order, each over the canonical certificate digest.
	Sigs [][]byte `json:"sigs"`
}

// SupermajorityThreshold is the default co-signature bar for a panel of n
// known keys: ⌊2n/3⌋+1, the classic Byzantine supermajority — any two
// certified verdicts for the same request share an honest co-signer, so
// fewer than n/3 colluding members cannot certify two contradicting
// verdicts.
func SupermajorityThreshold(n int) int {
	return 2*n/3 + 1
}

// KeyHash decodes the certificate's request key into the raw content
// address the cache and store index by.
func (c *Certificate) KeyHash() (identity.Hash, error) {
	var h identity.Hash
	raw, err := hex.DecodeString(c.Key)
	if err != nil || len(raw) != len(h) {
		return h, fmt.Errorf("%w: malformed request key %q", ErrCertificateRejected, c.Key)
	}
	copy(h[:], raw)
	return h, nil
}

// Digest computes the canonical byte string every co-signature must
// verify against: the domain-tagged digest of the request key and the
// verdict's canonical JSON — Verdict.AppendJSON's bytes, the ones a
// panel member's cache holds and signs.
func (c *Certificate) Digest() ([]byte, error) {
	key, err := c.KeyHash()
	if err != nil {
		return nil, err
	}
	return identity.CertificateDigest(key, c.Verdict.AppendJSON(nil)), nil
}

// CoSigners resolves the panel bitmap against the ordered keyset,
// returning the co-signing members in bit order. It validates bitmap
// shape only — Verify is what checks the signatures.
func (c *Certificate) CoSigners(keyset []identity.PartyID) ([]identity.PartyID, error) {
	if want := (len(keyset) + 7) / 8; len(c.Panel) != want {
		return nil, fmt.Errorf("%w: panel bitmap is %d bytes for a keyset of %d (want %d)",
			ErrCertificateRejected, len(c.Panel), len(keyset), want)
	}
	signers := make([]identity.PartyID, 0, len(c.Sigs))
	for i, b := range c.Panel {
		for b != 0 {
			bit := bits.TrailingZeros8(b)
			b &^= 1 << bit
			idx := i*8 + bit
			if idx >= len(keyset) {
				return nil, fmt.Errorf("%w: panel bitmap names member %d of a %d-member keyset",
					ErrCertificateRejected, idx, len(keyset))
			}
			signers = append(signers, keyset[idx])
		}
	}
	if len(signers) != len(c.Sigs) {
		return nil, fmt.Errorf("%w: panel bitmap names %d co-signers but %d signatures are attached",
			ErrCertificateRejected, len(signers), len(c.Sigs))
	}
	return signers, nil
}

// Verify checks the certificate offline against the ordered panel keyset:
// bitmap shape, co-signer count against the threshold (zero or negative
// means SupermajorityThreshold of the keyset), and every co-signature
// against the canonical certificate digest. A nil error means at least
// threshold distinct known panel members signed this exact verdict for
// this exact request — no live panel member was consulted.
func (c *Certificate) Verify(keyset []identity.PartyID, threshold int) error {
	if len(keyset) == 0 {
		return fmt.Errorf("%w: empty panel keyset", ErrCertificateRejected)
	}
	if threshold <= 0 {
		threshold = SupermajorityThreshold(len(keyset))
	}
	signers, err := c.CoSigners(keyset)
	if err != nil {
		return err
	}
	if len(signers) < threshold {
		return fmt.Errorf("%w: %d co-signatures, threshold is %d of %d",
			ErrCertificateRejected, len(signers), threshold, len(keyset))
	}
	digest, err := c.Digest()
	if err != nil {
		return err
	}
	for i, signer := range signers {
		if err := identity.Verify(signer, digest, c.Sigs[i]); err != nil {
			return fmt.Errorf("%w: co-signature %d (%s): %v",
				ErrCertificateRejected, i, shortID(signer), err)
		}
	}
	return nil
}

// EncodeCertificate renders a certificate for the wire or the store's
// certificate column. A nil certificate encodes to nil, which is how
// uncertified records travel.
func EncodeCertificate(c *Certificate) ([]byte, error) {
	if c == nil {
		return nil, nil
	}
	data, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("core: encoding certificate: %w", err)
	}
	return data, nil
}

// DecodeCertificate parses a certificate column or wire payload written
// by EncodeCertificate; empty input decodes to nil (no certificate).
func DecodeCertificate(data []byte) (*Certificate, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var c Certificate
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%w: malformed certificate encoding: %v", ErrCertificateRejected, err)
	}
	return &c, nil
}

// shortID abbreviates a party ID for log lines the way the rest of the
// system prints them: first and last four hex characters.
func shortID(id identity.PartyID) string {
	s := string(id)
	if len(s) <= 12 {
		return s
	}
	return s[:8] + "…" + s[len(s)-4:]
}
