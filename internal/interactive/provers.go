package interactive

import (
	"fmt"
	"io"
	"math/big"

	"rationality/internal/bimatrix"
	"rationality/internal/commitment"
	"rationality/internal/numeric"
)

// HonestProver implements P2Prover for a genuine equilibrium of the game. It
// commits to each agent's support-membership bits once at construction; all
// later openings are bound by those commitments.
type HonestProver struct {
	game *bimatrix.Game
	eq   *bimatrix.Equilibrium

	rowComms []commitment.Commitment // membership of row indices in supp(X)
	rowOpens []*commitment.Opening
	colComms []commitment.Commitment // membership of column indices in supp(Y)
	colOpens []*commitment.Opening
}

var _ P2Prover = (*HonestProver)(nil)

// NewHonestProver builds a prover for a known equilibrium, drawing
// commitment salts from rng (crypto/rand in production, a seeded source in
// tests). It refuses to be constructed on a non-equilibrium: an honest
// prover cannot prove a false statement.
func NewHonestProver(g *bimatrix.Game, eq *bimatrix.Equilibrium, rng io.Reader) (*HonestProver, error) {
	if eq == nil || !g.IsEquilibrium(eq.Profile) {
		return nil, fmt.Errorf("interactive: honest prover requires a genuine equilibrium")
	}
	rowBits := make(commitment.BitVector, g.Rows())
	for _, i := range eq.X.Support() {
		rowBits[i] = true
	}
	colBits := make(commitment.BitVector, g.Cols())
	for _, j := range eq.Y.Support() {
		colBits[j] = true
	}
	rowComms, rowOpens, err := commitment.CommitBits(rowBits, rng)
	if err != nil {
		return nil, err
	}
	colComms, colOpens, err := commitment.CommitBits(colBits, rng)
	if err != nil {
		return nil, err
	}
	return &HonestProver{
		game: g, eq: eq,
		rowComms: rowComms, rowOpens: rowOpens,
		colComms: colComms, colOpens: colOpens,
	}, nil
}

// Offer implements P2Prover: each agent receives its own side of the
// equilibrium plus commitments to the other side's membership bits.
func (p *HonestProver) Offer(role Role) (*P2Offer, error) {
	switch role {
	case RowAgent:
		return &P2Offer{
			Role:                  RowAgent,
			OwnSupport:            p.eq.X.Support(),
			OwnProbs:              p.eq.X.Clone(),
			LambdaOwn:             numeric.Copy(p.eq.LambdaRow),
			LambdaOther:           numeric.Copy(p.eq.LambdaCol),
			MembershipCommitments: append([]commitment.Commitment(nil), p.colComms...),
		}, nil
	case ColAgent:
		return &P2Offer{
			Role:                  ColAgent,
			OwnSupport:            p.eq.Y.Support(),
			OwnProbs:              p.eq.Y.Clone(),
			LambdaOwn:             numeric.Copy(p.eq.LambdaCol),
			LambdaOther:           numeric.Copy(p.eq.LambdaRow),
			MembershipCommitments: append([]commitment.Commitment(nil), p.rowComms...),
		}, nil
	default:
		return nil, fmt.Errorf("interactive: unknown role %v", role)
	}
}

// OpenMembership implements P2Prover by opening the committed bit for the
// other agent's strategy index.
func (p *HonestProver) OpenMembership(role Role, index int) (*commitment.Opening, error) {
	opens := p.colOpens
	if role == ColAgent {
		opens = p.rowOpens
	}
	if index < 0 || index >= len(opens) {
		return nil, fmt.Errorf("interactive: membership index %d out of range", index)
	}
	return opens[index], nil
}

// The dishonest provers below model the adversaries the verifier must catch.

// LyingLambdaProver behaves honestly except that it inflates the other
// agent's equilibrium value, making the advice "too good": the first
// conclusive query pair exposes it.
type LyingLambdaProver struct {
	*HonestProver
}

// Offer inflates LambdaOther by 1.
func (p *LyingLambdaProver) Offer(role Role) (*P2Offer, error) {
	offer, err := p.HonestProver.Offer(role)
	if err != nil {
		return nil, err
	}
	offer.LambdaOther = numeric.Add(offer.LambdaOther, numeric.One())
	return offer, nil
}

// EquivocatingProver commits to the honest membership bits but, when asked,
// opens a *different* index's opening — modelling a prover that tries to
// adapt its answers after seeing the queries. The commitment check catches
// it immediately.
type EquivocatingProver struct {
	*HonestProver
}

// OpenMembership returns the opening of index+1 (mod n) instead of index.
func (p *EquivocatingProver) OpenMembership(role Role, index int) (*commitment.Opening, error) {
	opens := p.colOpens
	if role == ColAgent {
		opens = p.rowOpens
	}
	if len(opens) == 0 {
		return nil, fmt.Errorf("interactive: no openings")
	}
	return opens[(index+1)%len(opens)], nil
}

// DenyingProver commits to an all-zero membership vector: it denies that any
// index is in the other agent's support, so no query pair is ever
// conclusive. The verifier must reject as inconclusive rather than accept.
type DenyingProver struct {
	honest *HonestProver
	comms  []commitment.Commitment
	opens  []*commitment.Opening
}

var _ P2Prover = (*DenyingProver)(nil)

// NewDenyingProver wraps an honest prover, replacing the membership layer
// with all-zero commitments for both sides (dimension of the larger side is
// reused per role below).
func NewDenyingProver(honest *HonestProver, rng io.Reader) (*DenyingProver, error) {
	n := len(honest.rowComms)
	if len(honest.colComms) > n {
		n = len(honest.colComms)
	}
	bits := make(commitment.BitVector, n)
	comms, opens, err := commitment.CommitBits(bits, rng)
	if err != nil {
		return nil, err
	}
	return &DenyingProver{honest: honest, comms: comms, opens: opens}, nil
}

// Offer is the honest offer with all-zero membership commitments.
func (p *DenyingProver) Offer(role Role) (*P2Offer, error) {
	offer, err := p.honest.Offer(role)
	if err != nil {
		return nil, err
	}
	offer.MembershipCommitments = append([]commitment.Commitment(nil),
		p.comms[:len(offer.MembershipCommitments)]...)
	return offer, nil
}

// OpenMembership opens the all-zero bit for any index.
func (p *DenyingProver) OpenMembership(role Role, index int) (*commitment.Opening, error) {
	if index < 0 || index >= len(p.opens) {
		return nil, fmt.Errorf("interactive: index out of range")
	}
	return p.opens[index], nil
}

// OverclaimingProver commits to membership bits that include indices outside
// the true support. A conclusive test touching a fake in-support index finds
// its expected gain below λ_other and rejects.
type OverclaimingProver struct {
	honest *HonestProver
	comms  map[Role][]commitment.Commitment
	opens  map[Role][]*commitment.Opening
}

var _ P2Prover = (*OverclaimingProver)(nil)

// NewOverclaimingProver claims every index of both supports is in-support.
func NewOverclaimingProver(honest *HonestProver, rng io.Reader) (*OverclaimingProver, error) {
	p := &OverclaimingProver{
		honest: honest,
		comms:  make(map[Role][]commitment.Commitment, 2),
		opens:  make(map[Role][]*commitment.Opening, 2),
	}
	for role, dim := range map[Role]int{RowAgent: len(honest.colComms), ColAgent: len(honest.rowComms)} {
		bits := make(commitment.BitVector, dim)
		for i := range bits {
			bits[i] = true
		}
		comms, opens, err := commitment.CommitBits(bits, rng)
		if err != nil {
			return nil, err
		}
		p.comms[role], p.opens[role] = comms, opens
	}
	return p, nil
}

// Offer is the honest offer with the inflated membership commitments.
func (p *OverclaimingProver) Offer(role Role) (*P2Offer, error) {
	offer, err := p.honest.Offer(role)
	if err != nil {
		return nil, err
	}
	offer.MembershipCommitments = append([]commitment.Commitment(nil), p.comms[role]...)
	return offer, nil
}

// OpenMembership opens the all-one bit for any index.
func (p *OverclaimingProver) OpenMembership(role Role, index int) (*commitment.Opening, error) {
	opens := p.opens[role]
	if index < 0 || index >= len(opens) {
		return nil, fmt.Errorf("interactive: index out of range")
	}
	return opens[index], nil
}

// FakeEquilibriumProver runs the honest machinery on a profile that is NOT
// an equilibrium (constructed without the NewHonestProver validity check).
// It models an inventor whose "statistically observed" outcome is simply
// wrong.
func FakeEquilibriumProver(g *bimatrix.Game, x, y *numeric.Vec, lr, lc *big.Rat, rng io.Reader) (*HonestProver, error) {
	eq := &bimatrix.Equilibrium{
		Profile:   bimatrix.Profile{X: x, Y: y},
		LambdaRow: lr,
		LambdaCol: lc,
	}
	rowBits := make(commitment.BitVector, g.Rows())
	for _, i := range x.Support() {
		rowBits[i] = true
	}
	colBits := make(commitment.BitVector, g.Cols())
	for _, j := range y.Support() {
		colBits[j] = true
	}
	rowComms, rowOpens, err := commitment.CommitBits(rowBits, rng)
	if err != nil {
		return nil, err
	}
	colComms, colOpens, err := commitment.CommitBits(colBits, rng)
	if err != nil {
		return nil, err
	}
	return &HonestProver{
		game: g, eq: eq,
		rowComms: rowComms, rowOpens: rowOpens,
		colComms: colComms, colOpens: colOpens,
	}, nil
}
