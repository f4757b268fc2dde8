package quorum

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// Certifier is the CoSi-style coordinator: it runs the panel fan-out once
// — a cosign request to every member — collects each member's Ed25519
// signature over the canonical verdict digest, and assembles a
// core.Certificate any client verifies offline against the known panel
// keyset. Where the quorum Client's Result is the live panel's word (the
// caller must trust the coordinator's report of the vote), a Certificate
// is self-proving: the co-signatures are checkable by anyone holding the
// keyset, with zero live panel members.
type Certifier struct {
	members   []Member
	keyset    []identity.PartyID
	index     map[identity.PartyID]int
	threshold int
	timeout   time.Duration
}

// CertifierConfig configures a certificate coordinator.
type CertifierConfig struct {
	// Members is the panel to fan cosign requests out to; at least one is
	// required. Member IDs are display names for errors — the identities
	// that matter are the Ed25519 signers in Keyset.
	Members []Member
	// Keyset is the ordered panel keyset: the Ed25519 party IDs whose
	// co-signatures certificates carry, in the exact order every verifying
	// client configures (the certificate bitmap indexes this slice).
	// Required, and members answering with a signer outside it are
	// discarded as keyset mismatches.
	Keyset []identity.PartyID
	// Threshold is the minimum co-signature count for an assembled
	// certificate; zero means core.SupermajorityThreshold(len(Keyset)).
	Threshold int
	// CallTimeout bounds each member's consultation; zero means
	// DefaultCallTimeout, negative disables the per-member bound.
	CallTimeout time.Duration
}

// ErrCertification is the base error for a fan-out that could not produce
// a certificate: too few co-signatures for the threshold, or members that
// could not agree on one verdict.
var ErrCertification = errors.New("quorum: certification failed")

// NewCertifier validates the panel and keyset and builds a coordinator.
// The member clients are borrowed, not owned, exactly as in New.
func NewCertifier(cfg CertifierConfig) (*Certifier, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("quorum: certifier needs at least one member")
	}
	if len(cfg.Keyset) == 0 {
		return nil, errors.New("quorum: certifier needs the ordered panel keyset")
	}
	for _, m := range cfg.Members {
		if m.ID == "" || m.Client == nil {
			return nil, fmt.Errorf("quorum: certifier member %q needs an ID and a client", m.ID)
		}
	}
	c := &Certifier{
		members:   append([]Member(nil), cfg.Members...),
		threshold: cfg.Threshold,
		timeout:   cfg.CallTimeout,
	}
	if c.timeout == 0 {
		c.timeout = DefaultCallTimeout
	}
	if c.threshold <= 0 {
		c.threshold = core.SupermajorityThreshold(len(cfg.Keyset))
	}
	c.index = make(map[identity.PartyID]int, len(cfg.Keyset))
	for i, pk := range cfg.Keyset {
		canonical, err := identity.ParsePartyID(string(pk))
		if err != nil {
			return nil, fmt.Errorf("quorum: certifier keyset[%d]: %w", i, err)
		}
		if _, dup := c.index[canonical]; dup {
			return nil, fmt.Errorf("quorum: certifier keyset[%d]: duplicate panel key %s", i, canonical)
		}
		c.keyset = append(c.keyset, canonical)
		c.index[canonical] = i
	}
	return c, nil
}

// Threshold reports the co-signature count Certify requires.
func (c *Certifier) Threshold() int { return c.threshold }

// Certify fans the request out to every panel member concurrently,
// validates each returned co-signature — the claimed signer must be in
// the keyset, must not have signed already, and the signature must verify
// over the canonical digest of the member's own verdict — and assembles a
// core.Certificate from the verdict that gathered at least Threshold
// valid co-signatures. Members that fail, time out, answer with a signer
// outside the keyset, or sign a digest that does not verify are simply
// not in the certificate; if no verdict reaches the threshold, or two
// verdicts tie for the most co-signatures at or above it, Certify reports
// what fell short or how the panel split with an error wrapping
// ErrCertification.
func (c *Certifier) Certify(ctx context.Context, req core.VerifyRequest) (*core.Certificate, error) {
	msg, err := transport.NewMessage(service.MsgCoSign, service.CoSignRequest{Request: req})
	if err != nil {
		return nil, err
	}
	key := identity.DigestBytes([]byte(req.Format), req.Game, req.Advice, req.Proof)

	answers := make(chan *service.CoSignResponse, len(c.members))
	for _, m := range c.members {
		go func(m Member) {
			// A member that fails answers nil: an abstention.
			resp, _ := call[service.CoSignResponse](ctx, c.timeout, m, msg)
			answers <- resp
		}(m)
	}

	// Group validated co-signatures by the verdict bytes each member sent:
	// members must co-sign the *same* verdict, and the digest each one
	// signed is bound to its own verdict bytes, so grouping by those bytes
	// keeps signature and verdict consistent by construction. Only the
	// canonical spelling (AppendJSON's) counts, since that is what a
	// certificate's digest is checked against.
	type tally struct {
		verdict []byte
		sigs    map[int][]byte // keyset slot -> signature (dedupes signers)
	}
	tallies := make(map[string]*tally)
	for range c.members {
		resp := <-answers
		if resp == nil || resp.Key != key.String() {
			continue // abstention, or a member answering for the wrong request
		}
		slot, ok := c.index[resp.Signer]
		if !ok {
			continue // keyset mismatch: a signer the clients would not accept
		}
		if _, canonical := core.CanonicalVerdict(resp.Verdict); !canonical {
			continue // not AppendJSON's spelling: no certificate could carry it
		}
		digest := identity.CertificateDigest(key, resp.Verdict)
		if identity.Verify(resp.Signer, digest, resp.Signature) != nil {
			continue // signature over the wrong digest, or forged
		}
		tl := tallies[string(resp.Verdict)]
		if tl == nil {
			tl = &tally{verdict: resp.Verdict, sigs: make(map[int][]byte)}
			tallies[string(resp.Verdict)] = tl
		}
		// A duplicate signer keeps its first valid signature: one panel
		// member is one bitmap bit, however often it answers.
		if _, dup := tl.sigs[slot]; !dup {
			tl.sigs[slot] = resp.Signature
		}
	}

	var winner *tally
	best, tied := 0, 0
	split := make([]int, 0, len(tallies))
	for _, tl := range tallies {
		n := len(tl.sigs)
		split = append(split, n)
		switch {
		case n > best:
			winner, best, tied = tl, n, 1
		case n == best:
			tied++
		}
	}
	if winner == nil || best < c.threshold {
		return nil, fmt.Errorf("%w: %d valid co-signatures over one verdict from a panel of %d, need %d",
			ErrCertification, best, len(c.keyset), c.threshold)
	}
	if tied > 1 {
		// Two verdicts that both clear the threshold: certifying either
		// would let map order pick the panel's word.
		sort.Sort(sort.Reverse(sort.IntSlice(split)))
		return nil, fmt.Errorf("%w: the panel split %v co-signatures over %d verdicts, a tie at the top (need %d)",
			ErrCertification, split, len(split), c.threshold)
	}

	slots := make([]int, 0, len(winner.sigs))
	for slot := range winner.sigs {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	var verdict core.Verdict
	if err := json.Unmarshal(winner.verdict, &verdict); err != nil {
		return nil, fmt.Errorf("quorum: decoding the certified verdict: %w", err)
	}
	cert := &core.Certificate{
		Key:     key.String(),
		Verdict: verdict,
		Panel:   make([]byte, (len(c.keyset)+7)/8),
		Sigs:    make([][]byte, 0, len(slots)),
	}
	for _, slot := range slots {
		cert.Panel[slot/8] |= 1 << (slot % 8)
		cert.Sigs = append(cert.Sigs, winner.sigs[slot])
	}
	// Self-check before handing the certificate out: assembly bugs must
	// fail the coordinator, never a client.
	if err := cert.Verify(c.keyset, c.threshold); err != nil {
		return nil, fmt.Errorf("quorum: assembled certificate failed self-verification: %w", err)
	}
	return cert, nil
}
