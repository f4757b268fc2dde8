package service

import (
	"context"
	"errors"
	"fmt"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/store"
)

// Quorum-certificate endpoints: the service side of CoSi-style collective
// signing. A keyed authority co-signs its own verdicts on request
// (MsgCoSign: verify through the normal cached path, then one Ed25519
// signature over the canonical certificate digest); any authority accepts
// assembled certificates (MsgCertPut) — verified offline against the
// configured panel keyset before a byte is persisted — and serves them
// back (MsgCertGet) from the sharded cache, so a client holding the panel
// keyset checks a quorum-certified verdict with one request and local
// signature checks, no live panel member needed.

// ErrNoSigningKey is returned by CoSign on a service running without a
// signing identity: a co-signature is this authority's Ed25519 word over
// a verdict, so there must be a key to give it (set Config.Key).
var ErrNoSigningKey = errors.New("service: co-signing requires a signing identity (Config.Key)")

// CoSign verifies one request through the normal cached/singleflight path
// and signs the canonical certificate digest over the resulting verdict —
// over the cached verdict bytes themselves — with this authority's key.
// The returned response carries everything a certificate coordinator
// needs: the signer's party ID, the content-addressed verdict key, the
// verdict's cached bytes (shared with the cache: read, never modify), and
// the signature. The verdict is this authority's own (cache hits included)
// — co-signing never outsources the judgement being signed.
func (s *Service) CoSign(ctx context.Context, req core.VerifyRequest) (CoSignResponse, error) {
	if s.fed == nil || s.fed.key == nil {
		return CoSignResponse{}, ErrNoSigningKey
	}
	e, err := s.verify(ctx, "", req.Format, req.Game, req.Advice, req.Proof)
	if err != nil {
		return CoSignResponse{}, err
	}
	key := identity.DigestBytes([]byte(req.Format), req.Game, req.Advice, req.Proof)
	sig := s.fed.key.Sign(identity.CertificateDigest(key, e.verdict))
	s.metrics.certsCosigned.Add(1)
	return CoSignResponse{
		VerifierID: s.id,
		Signer:     s.fed.key.ID(),
		Key:        key.String(),
		Verdict:    e.verdict,
		Signature:  sig,
	}, nil
}

// StoreCertificate admits one assembled quorum certificate: verified
// offline against the panel keyset when Config.PanelKeys is set (failures
// are counted and surface with the "certificate rejected:" prefix),
// persisted as a certified record in the durable log — written before
// StoreCertificate returns; a certificate the log could not write is
// refused, not acknowledged — and installed in the verdict cache
// so Certificate serves it without touching the store, or the panel. An
// attached gossiper then pushes the certified record to its peers at once
// (Engine.Push), so a replica serves it one round trip later; the rounds
// remain the backstop, where peers that hold the bare verdict pull the
// certified copy because the record's content sum covers it.
func (s *Service) StoreCertificate(c *core.Certificate) error {
	if c == nil {
		s.metrics.certsRejected.Add(1)
		return fmt.Errorf("%w: no certificate in request", core.ErrCertificateRejected)
	}
	key, err := c.KeyHash()
	if err != nil {
		s.metrics.certsRejected.Add(1)
		return err
	}
	if len(s.panelKeys) > 0 {
		if err := c.Verify(s.panelKeys, s.certThreshold); err != nil {
			s.metrics.certsRejected.Add(1)
			return err
		}
	}
	encoded, err := core.EncodeCertificate(c)
	if err != nil {
		return err
	}
	if err := s.acquire(); err != nil {
		return err
	}
	defer s.release()
	if s.store != nil {
		// The append waits for the write: acknowledging a certificate the
		// log never wrote would promise what no restart or replica holds.
		if err := s.store.AppendCertified(key, c.Verdict, nil, encoded); err != nil {
			return fmt.Errorf("service: certificate %s not persisted: %w", key, err)
		}
	}
	s.cache.PutCertified(key, c.Verdict, encoded, false)
	s.announce(key)
	s.metrics.certsStored.Add(1)
	return nil
}

// Certificate returns the stored quorum certificate for a
// content-addressed verdict key, decoded, or found=false when the key is
// uncertified (or unknown). The lookup is a lock-free cache read — this
// is the one-request offline-verification hot path, and it never touches
// the durable log.
func (s *Service) Certificate(key identity.Hash) (*core.Certificate, bool, error) {
	raw, ok := s.cache.Cert(key)
	if !ok {
		return nil, false, nil
	}
	c, err := core.DecodeCertificate(raw)
	if err != nil {
		return nil, false, err
	}
	s.metrics.certsServed.Add(1)
	return c, true, nil
}

// admitRecordCert gates one ingested record's carried certificate: with a
// panel keyset configured the certificate must decode, match the record's
// own key, and verify offline — anything less and the certificate is
// stripped (the verdict itself still merges; a bad certificate must not
// poison replication) with the rejection counted. Without a keyset the
// certificate rides through unverified, matching the store/serve trust
// model.
func (s *Service) admitRecordCert(r *store.Record) {
	if len(r.Cert) == 0 || len(s.panelKeys) == 0 {
		return
	}
	c, err := core.DecodeCertificate(r.Cert)
	if err == nil {
		var key identity.Hash
		key, err = c.KeyHash()
		if err == nil && key != r.Key {
			err = fmt.Errorf("%w: certificate key %s does not match record key %s",
				core.ErrCertificateRejected, key, r.Key)
		}
		if err == nil {
			err = c.Verify(s.panelKeys, s.certThreshold)
		}
	}
	if err != nil {
		r.Cert = nil
		s.metrics.certsRejected.Add(1)
	}
}
