package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"rationality/internal/game"
	"rationality/internal/interactive"
	"rationality/internal/numeric"
	"rationality/internal/proof"
)

// Proof formats understood by the bundled verification procedures. The
// paper: the procedures "should be able to check proofs in an agreed upon
// format", possibly "even an empty proof relying on the verifier procedure
// to check the suggested actions in the style of nondeterministic Turing
// machines" — which is exactly what the P1 and participation formats are:
// the advice is the witness, the proof body is empty.
const (
	// FormatEnumeration is the §3 Coq-style enumeration certificate for pure
	// Nash equilibria of strategic-form games.
	FormatEnumeration = "enumeration-nash/v1"
	// FormatP1 is the §4 support-revealing advice for bimatrix games; empty
	// proof, verifier solves the indifference system (Fig. 3).
	FormatP1 = "p1-supports/v1"
	// FormatNAgent is Remark 1's n-agent supports+probabilities advice.
	FormatNAgent = "n-agent-supports/v1"
	// FormatParticipation is the §5 symmetric equilibrium probability advice
	// for participation games; empty proof, verifier asserts Eq. (5).
	FormatParticipation = "participation/v1"
)

// Verdict is a verifier's structured answer.
type Verdict struct {
	Accepted bool   `json:"accepted"`
	Format   string `json:"format"`
	// Reason explains a rejection (empty on acceptance).
	Reason string `json:"reason,omitempty"`
	// Details carries format-specific findings, e.g. the equilibrium values
	// the verifier recovered.
	Details map[string]string `json:"details,omitempty"`
}

// Clone returns a deep copy of the verdict. Details is a mutable map, so
// any holder that shares a verdict across goroutines or caches it must
// copy before handing it out; this is the one place that knows which
// fields need deep treatment.
func (v Verdict) Clone() Verdict {
	if v.Details != nil {
		details := make(map[string]string, len(v.Details))
		for k, val := range v.Details {
			details[k] = val
		}
		v.Details = details
	}
	return v
}

// Procedure is one verification procedure v(): it knows how to check one
// proof format. Implementations must be stateless and safe for concurrent
// use — the same procedure object serves many requests.
type Procedure interface {
	// Format returns the proof format this procedure checks.
	Format() string
	// Verify checks advice (and proof, when the format carries one) against
	// the game description. It returns a Verdict; an error means the inputs
	// were unintelligible rather than wrong (malformed JSON, unknown game),
	// which callers usually also treat as rejection.
	Verify(gameSpec, advice, proofBody json.RawMessage) (*Verdict, error)
}

// ProcedureRegistry resolves formats to procedures; the paper's "library for
// the specification of the solution concepts".
type ProcedureRegistry struct {
	mu    sync.RWMutex
	procs map[string]Procedure
}

// NewProcedureRegistry returns a registry preloaded with the four bundled
// procedures.
func NewProcedureRegistry() *ProcedureRegistry {
	r := &ProcedureRegistry{procs: make(map[string]Procedure)}
	for _, p := range []Procedure{
		EnumerationProcedure{},
		P1Procedure{},
		NAgentProcedure{},
		ParticipationProcedure{},
		CorrelatedProcedure{},
		LastMoverProcedure{},
		LinksRoutingProcedure{},
	} {
		r.Register(p)
	}
	return r
}

// Register adds or replaces a procedure.
func (r *ProcedureRegistry) Register(p Procedure) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.procs[p.Format()] = p
}

// Lookup resolves a format.
func (r *ProcedureRegistry) Lookup(format string) (Procedure, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.procs[format]
	if !ok {
		return nil, fmt.Errorf("core: no verification procedure for format %q", format)
	}
	return p, nil
}

// Formats lists the registered formats in sorted order — what a verifier
// advertises to agents.
func (r *ProcedureRegistry) Formats() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.procs))
	for f := range r.procs {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// LyingProcedure is the one adversarial test double: it runs the wrapped
// procedure honestly, then inverts the verdict. The lie being an ordinary
// Procedure, whatever serves it treats it like a truth — cached,
// persisted beside its request, signed and vouched for — so a majority
// can out-vote it and an honest auditor can replay the request, refute
// the verdict and convict the signer. Errors pass through uninverted.
type LyingProcedure struct{ Inner Procedure }

// Format implements Procedure.
func (l LyingProcedure) Format() string { return l.Inner.Format() }

// Verify implements Procedure.
func (l LyingProcedure) Verify(gameSpec, advice, proofBody json.RawMessage) (*Verdict, error) {
	v, err := l.Inner.Verify(gameSpec, advice, proofBody)
	if err != nil || v == nil {
		return v, err
	}
	lied := *v
	lied.Accepted = !v.Accepted
	if lied.Accepted {
		lied.Reason = ""
	} else {
		lied.Reason = "rejected" // a liar gives no useful evidence
	}
	return &lied, nil
}

// NewLyingProcedureRegistry returns a registry whose every bundled
// procedure is wrapped in a LyingProcedure.
func NewLyingProcedureRegistry() *ProcedureRegistry {
	r := NewProcedureRegistry()
	for format, p := range r.procs {
		r.procs[format] = LyingProcedure{Inner: p}
	}
	return r
}

// EnumerationProcedure checks §3 certificates: game = GameSpec, advice =
// the recommended profile, proof = the full proof.Proof enumeration
// certificate.
type EnumerationProcedure struct{}

// Format implements Procedure.
func (EnumerationProcedure) Format() string { return FormatEnumeration }

// Verify implements Procedure.
func (EnumerationProcedure) Verify(gameSpec, advice, proofBody json.RawMessage) (*Verdict, error) {
	g, err := decodeOr(gameSpec, "core: enumeration game spec: %w", (*scanner).game, (*GameSpec).ToGame)
	if err != nil {
		return nil, err
	}
	advised, err := decodeOr(advice, "core: enumeration advice: %w", (*scanner).profile, itself[game.Profile])
	if err != nil {
		return nil, err
	}
	pf, err := decodeOr(proofBody, "proof: decoding: %w", (*scanner).proof, itself[proof.Proof])
	if err != nil {
		return nil, err
	}
	verdict := &Verdict{Format: FormatEnumeration, Details: map[string]string{
		"steps": fmt.Sprint(pf.Steps()),
		"mode":  pf.Mode.String(),
	}}
	if !pf.Advised.Equal(advised) {
		verdict.Reason = fmt.Sprintf("proof certifies %v but the advice is %v", pf.Advised, advised)
		return verdict, nil
	}
	if err := proof.Check(g, &pf); err != nil {
		verdict.Reason = err.Error()
		return verdict, nil
	}
	verdict.Accepted = true
	for i := 0; i < g.NumAgents(); i++ {
		verdict.Details[fmt.Sprintf("payoff[%d]", i)] = g.Payoff(i, advised).RatString()
	}
	return verdict, nil
}

// P1Procedure checks §4 support advice: game = BimatrixSpec, advice =
// interactive.P1Advice, proof = empty.
type P1Procedure struct{}

// Format implements Procedure.
func (P1Procedure) Format() string { return FormatP1 }

// Verify implements Procedure.
func (P1Procedure) Verify(gameSpec, advice, _ json.RawMessage) (*Verdict, error) {
	g, err := decodeOr(gameSpec, "core: P1 game spec: %w", (*scanner).bimatrix, (*BimatrixSpec).ToBimatrix)
	if err != nil {
		return nil, err
	}
	adv, err := decodeOr(advice, "core: P1 advice: %w", (*scanner).p1Advice, itself[interactive.P1Advice])
	if err != nil {
		return nil, err
	}
	verdict := &Verdict{Format: FormatP1, Details: map[string]string{
		"bitsOnWire": fmt.Sprint(adv.BitsOnWire()),
	}}
	eq, err := interactive.VerifyP1(g, &adv)
	if err != nil {
		verdict.Reason = err.Error()
		return verdict, nil
	}
	verdict.Accepted = true
	verdict.Details["lambdaRow"] = eq.LambdaRow.RatString()
	verdict.Details["lambdaCol"] = eq.LambdaCol.RatString()
	verdict.Details["x"] = eq.X.String()
	verdict.Details["y"] = eq.Y.String()
	return verdict, nil
}

// NAgentAdviceSpec is the wire form of Remark 1's n-agent advice.
type NAgentAdviceSpec struct {
	Supports [][]int   `json:"supports"`
	Probs    []VecSpec `json:"probs"`
}

// advice converts the wire form into the advice VerifyNAgent checks.
func (s *NAgentAdviceSpec) advice() (*interactive.NAgentAdvice, error) {
	probs := make(game.MixedProfile, len(s.Probs))
	for i, vs := range s.Probs {
		v, err := vs.ToVec()
		if err != nil {
			return nil, err
		}
		probs[i] = v
	}
	return &interactive.NAgentAdvice{Supports: s.Supports, Probs: probs}, nil
}

// NAgentProcedure checks the n-agent generalization: game = GameSpec,
// advice = NAgentAdviceSpec, proof = empty.
type NAgentProcedure struct{}

// Format implements Procedure.
func (NAgentProcedure) Format() string { return FormatNAgent }

// Verify implements Procedure.
func (NAgentProcedure) Verify(gameSpec, advice, _ json.RawMessage) (*Verdict, error) {
	g, err := decodeOr(gameSpec, "core: n-agent game spec: %w", (*scanner).game, (*GameSpec).ToGame)
	if err != nil {
		return nil, err
	}
	adv, err := decodeOr(advice, "core: n-agent advice: %w", (*scanner).nAgentAdvice, (*NAgentAdviceSpec).advice)
	if err != nil {
		return nil, err
	}
	verdict := &Verdict{Format: FormatNAgent, Details: map[string]string{}}
	values, err := interactive.VerifyNAgent(g, adv)
	if err != nil {
		verdict.Reason = err.Error()
		return verdict, nil
	}
	verdict.Accepted = true
	for i, v := range values {
		verdict.Details[fmt.Sprintf("value[%d]", i)] = v.RatString()
	}
	return verdict, nil
}

// ParticipationAdviceSpec is the §5 advice: the symmetric equilibrium
// probability (plus an optional tolerance for numerically solved roots).
type ParticipationAdviceSpec struct {
	P string `json:"p"`
	// Tolerance, when non-empty, lets the verifier accept a p whose
	// indifference gap is within the given bound (exact check otherwise).
	Tolerance string `json:"tolerance,omitempty"`
}

// rats parses p, and the tolerance when there is one.
func (a *ParticipationAdviceSpec) rats() (pt [2]*numeric.Rat, err error) {
	if pt[0], err = numeric.ParseRat(a.P); err != nil {
		return pt, fmt.Errorf("core: participation advice p: %w", err)
	}
	if a.Tolerance == "" {
		return pt, nil
	}
	if pt[1], err = numeric.ParseRat(a.Tolerance); err != nil {
		return pt, fmt.Errorf("core: participation tolerance: %w", err)
	}
	return pt, nil
}

// ParticipationProcedure checks §5 advice: game = ParticipationSpec, advice
// = ParticipationAdviceSpec, proof = empty (the verifier asserts Eq. (5)).
type ParticipationProcedure struct{}

// Format implements Procedure.
func (ParticipationProcedure) Format() string { return FormatParticipation }

// Verify implements Procedure.
func (ParticipationProcedure) Verify(gameSpec, advice, _ json.RawMessage) (*Verdict, error) {
	g, err := decodeOr(gameSpec, "core: participation game spec: %w", (*scanner).participation, (*ParticipationSpec).ToParticipation)
	if err != nil {
		return nil, err
	}
	pt, err := decodeOr(advice, "core: participation advice: %w", (*scanner).participationAdvice, (*ParticipationAdviceSpec).rats)
	if err != nil {
		return nil, err
	}
	p, tol := pt[0], pt[1]
	verdict := &Verdict{Format: FormatParticipation, Details: map[string]string{
		"p": p.RatString(),
	}}
	if tol != nil {
		gap, err := g.VerifyAdviceApprox(p, tol)
		if err != nil {
			verdict.Reason = err.Error()
			return verdict, nil
		}
		verdict.Accepted = true
		verdict.Details["indifferenceGap"] = gap.RatString()
		verdict.Details["expectedGain"] = g.GainAbstain(p).RatString()
		return verdict, nil
	}
	gain, err := g.VerifyAdvice(p)
	if err != nil {
		verdict.Reason = err.Error()
		return verdict, nil
	}
	verdict.Accepted = true
	verdict.Details["expectedGain"] = gain.RatString()
	return verdict, nil
}
