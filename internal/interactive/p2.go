package interactive

import (
	"fmt"
	"math/big"
	"math/rand"

	"rationality/internal/bimatrix"
	"rationality/internal/commitment"
	"rationality/internal/numeric"
)

// Role identifies which agent of a bimatrix game a message or verifier
// belongs to.
type Role int

// Agent roles.
const (
	RowAgent Role = iota + 1
	ColAgent
)

func (r Role) String() string {
	switch r {
	case RowAgent:
		return "row"
	case ColAgent:
		return "column"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// P2Offer is the prover's opening message of Fig. 4, addressed to one agent:
// "just its support, its probabilities, and the values λ1, λ2" — nothing
// about the other agent except binding commitments to the membership bits of
// the other agent's support, which the prover opens one index at a time on
// query.
type P2Offer struct {
	Role        Role
	OwnSupport  []int
	OwnProbs    *numeric.Vec
	LambdaOwn   *big.Rat // the receiving agent's equilibrium value
	LambdaOther *big.Rat // the other agent's equilibrium value
	// MembershipCommitments[j] binds the answer to "is the other agent's
	// pure strategy j in its support?".
	MembershipCommitments []commitment.Commitment
}

// P2Prover answers the verifier's protocol messages. Implementations may be
// honest or adversarial; the verifier must accept the former and reject (or
// leave inconclusive) the latter.
type P2Prover interface {
	// Offer returns the opening message for the given agent.
	Offer(role Role) (*P2Offer, error)
	// OpenMembership opens the membership commitment for pure strategy
	// index of the agent opposite to role.
	OpenMembership(role Role, index int) (*commitment.Opening, error)
}

// P2Config tunes the verifier.
type P2Config struct {
	// Rng drives the random index queries. Required.
	Rng *rand.Rand
	// MinConclusive is how many conclusive (in-support-touching) query pairs
	// must pass before accepting. Default 1, matching Fig. 4; Remark 3's
	// constant-k testing sets it higher.
	MinConclusive int
	// MaxQueries bounds the total number of index queries before the
	// verifier gives up and rejects as inconclusive. Default 64·n where n is
	// the opponent strategy count.
	MaxQueries int
}

// P2Report is the verifier's outcome together with the query statistics that
// experiment E5 (Remark 3) measures.
type P2Report struct {
	Accepted   bool
	Queries    int // total membership queries issued
	Conclusive int // conclusive query pairs observed
	// RevealedIndices counts how many distinct opponent indices were opened;
	// the privacy measure: |revealed| << n means the support stayed hidden.
	RevealedIndices int
}

// VerifyP2 runs the Fig. 4 verifier for the given agent role. It checks the
// offer's self-consistency, then repeatedly asks the prover for two random
// indices of the other agent's strategy space and applies the paper's two
// conclusive tests:
//
//   - both in the hidden support: both expected gains must equal λ_other;
//   - one in, one out: the in-gain must equal λ_other and weakly exceed the
//     out-gain.
//
// A pair with both indices outside the support is inconclusive. Expected
// gains λ_other(j) are computed from the verifier's OWN probabilities, which
// the offer supplies, so nothing about the other agent is revealed beyond
// the queried bits.
func VerifyP2(g *bimatrix.Game, role Role, prover P2Prover, cfg P2Config) (*P2Report, error) {
	if cfg.Rng == nil {
		return nil, fmt.Errorf("interactive: P2Config.Rng is required")
	}
	ownDim, otherDim := g.Rows(), g.Cols()
	if role == ColAgent {
		ownDim, otherDim = g.Cols(), g.Rows()
	}
	minConclusive := cfg.MinConclusive
	if minConclusive <= 0 {
		minConclusive = 1
	}
	maxQueries := cfg.MaxQueries
	if maxQueries <= 0 {
		maxQueries = 64 * otherDim
	}

	report := &P2Report{}

	offer, err := prover.Offer(role)
	if err != nil {
		return report, fmt.Errorf("interactive: prover refused to make an offer: %w", err)
	}
	if err := checkOffer(offer, role, ownDim, otherDim); err != nil {
		return report, err
	}

	// The receiving agent's expected gain for each of the other agent's pure
	// strategies j, computed once from its own mix: for the row agent this
	// is λ2(j) = Σ_i x_i B(i, j); for the column agent λ1(i) = Σ_j y_j A(i, j).
	gainTable := g.RowValues
	if role == RowAgent {
		gainTable = g.ColValues
	}
	gains := gainTable(offer.OwnProbs)

	opened := make(map[int]bool, otherDim)
	membership := make(map[int]bool, otherDim)
	query := func(j int) (bool, error) {
		report.Queries++
		if in, ok := membership[j]; ok {
			return in, nil
		}
		open, err := prover.OpenMembership(role, j)
		if err != nil {
			return false, fmt.Errorf("interactive: prover refused membership query %d: %w", j, err)
		}
		in, err := commitment.OpenBit(offer.MembershipCommitments[j], open)
		if err != nil {
			return false, rejectP("P2", "membership opening for index %d is invalid: %v", j, err)
		}
		opened[j] = true
		membership[j] = in
		report.RevealedIndices = len(opened)
		return in, nil
	}

	for report.Conclusive < minConclusive {
		if report.Queries+2 > maxQueries {
			return report, rejectP("P2", "inconclusive after %d queries: no queried index was in the hidden support",
				report.Queries)
		}
		j1 := cfg.Rng.Intn(otherDim)
		j2 := cfg.Rng.Intn(otherDim)
		in1, err := query(j1)
		if err != nil {
			return report, err
		}
		in2, err := query(j2)
		if err != nil {
			return report, err
		}

		switch {
		case in1 && in2:
			if !numeric.Eq(gains.Ref(j1), offer.LambdaOther) || !numeric.Eq(gains.Ref(j2), offer.LambdaOther) {
				return report, rejectP("P2", "both-in test failed: gains (%s, %s) != λ_other = %s",
					gains.Ref(j1).RatString(), gains.Ref(j2).RatString(), offer.LambdaOther.RatString())
			}
			report.Conclusive++
		case in1 || in2:
			in, out := j1, j2
			if in2 {
				in, out = j2, j1
			}
			if !numeric.Eq(gains.Ref(in), offer.LambdaOther) {
				return report, rejectP("P2", "1-in/1-out test failed: in-gain %s != λ_other = %s",
					gains.Ref(in).RatString(), offer.LambdaOther.RatString())
			}
			if numeric.Gt(gains.Ref(out), offer.LambdaOther) {
				return report, rejectP("P2", "1-in/1-out test failed: out-gain %s exceeds λ_other = %s",
					gains.Ref(out).RatString(), offer.LambdaOther.RatString())
			}
			report.Conclusive++
		default:
			// Both out: inconclusive (Fig. 4), but the out-gains must still
			// not exceed λ_other; a violation is a free catch.
			for _, j := range []int{j1, j2} {
				if numeric.Gt(gains.Ref(j), offer.LambdaOther) {
					return report, rejectP("P2", "out-of-support index %d gains %s > λ_other = %s",
						j, gains.Ref(j).RatString(), offer.LambdaOther.RatString())
				}
			}
		}
	}

	report.Accepted = true
	return report, nil
}

// checkOffer validates the self-describing parts of a P2 offer.
func checkOffer(offer *P2Offer, role Role, ownDim, otherDim int) error {
	if offer == nil {
		return rejectP("P2", "nil offer")
	}
	if offer.Role != role {
		return rejectP("P2", "offer addressed to %v, expected %v", offer.Role, role)
	}
	if offer.OwnProbs == nil || offer.OwnProbs.Len() != ownDim {
		return rejectP("P2", "own probability vector has wrong dimension")
	}
	if !offer.OwnProbs.IsStochastic() {
		return rejectP("P2", "own probabilities are not a distribution")
	}
	if err := checkSupport(offer.OwnSupport, ownDim); err != nil {
		return rejectP("P2", "own support: %v", err)
	}
	// The support must be exactly the non-zeros of the probabilities.
	actual := offer.OwnProbs.Support()
	if len(actual) != len(offer.OwnSupport) {
		return rejectP("P2", "own support size %d does not match probabilities' support size %d",
			len(offer.OwnSupport), len(actual))
	}
	inClaimed := make(map[int]bool, len(offer.OwnSupport))
	for _, i := range offer.OwnSupport {
		inClaimed[i] = true
	}
	for _, i := range actual {
		if !inClaimed[i] {
			return rejectP("P2", "probability on strategy %d outside the claimed support", i)
		}
	}
	if offer.LambdaOwn == nil || offer.LambdaOther == nil {
		return rejectP("P2", "missing equilibrium values")
	}
	if len(offer.MembershipCommitments) != otherDim {
		return rejectP("P2", "expected %d membership commitments, got %d",
			otherDim, len(offer.MembershipCommitments))
	}
	return nil
}
