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
	var spec GameSpec
	if err := json.Unmarshal(gameSpec, &spec); err != nil {
		return nil, fmt.Errorf("core: enumeration game spec: %w", err)
	}
	g, err := spec.ToGame()
	if err != nil {
		return nil, err
	}
	var advised game.Profile
	if err := json.Unmarshal(advice, &advised); err != nil {
		return nil, fmt.Errorf("core: enumeration advice: %w", err)
	}
	pf, err := proof.Unmarshal(proofBody)
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
	if err := proof.Check(g, pf); err != nil {
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
	var spec BimatrixSpec
	if err := json.Unmarshal(gameSpec, &spec); err != nil {
		return nil, fmt.Errorf("core: P1 game spec: %w", err)
	}
	g, err := spec.ToBimatrix()
	if err != nil {
		return nil, err
	}
	var adv interactive.P1Advice
	if err := json.Unmarshal(advice, &adv); err != nil {
		return nil, fmt.Errorf("core: P1 advice: %w", err)
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

// NAgentProcedure checks the n-agent generalization: game = GameSpec,
// advice = NAgentAdviceSpec, proof = empty.
type NAgentProcedure struct{}

// Format implements Procedure.
func (NAgentProcedure) Format() string { return FormatNAgent }

// Verify implements Procedure.
func (NAgentProcedure) Verify(gameSpec, advice, _ json.RawMessage) (*Verdict, error) {
	var spec GameSpec
	if err := json.Unmarshal(gameSpec, &spec); err != nil {
		return nil, fmt.Errorf("core: n-agent game spec: %w", err)
	}
	g, err := spec.ToGame()
	if err != nil {
		return nil, err
	}
	var advSpec NAgentAdviceSpec
	if err := json.Unmarshal(advice, &advSpec); err != nil {
		return nil, fmt.Errorf("core: n-agent advice: %w", err)
	}
	probs := make(game.MixedProfile, len(advSpec.Probs))
	for i, vs := range advSpec.Probs {
		v, err := vs.ToVec()
		if err != nil {
			return nil, err
		}
		probs[i] = v
	}
	verdict := &Verdict{Format: FormatNAgent, Details: map[string]string{}}
	values, err := interactive.VerifyNAgent(g, &interactive.NAgentAdvice{
		Supports: advSpec.Supports,
		Probs:    probs,
	})
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

// ParticipationProcedure checks §5 advice: game = ParticipationSpec, advice
// = ParticipationAdviceSpec, proof = empty (the verifier asserts Eq. (5)).
type ParticipationProcedure struct{}

// Format implements Procedure.
func (ParticipationProcedure) Format() string { return FormatParticipation }

// Verify implements Procedure.
func (ParticipationProcedure) Verify(gameSpec, advice, _ json.RawMessage) (*Verdict, error) {
	var spec ParticipationSpec
	if err := json.Unmarshal(gameSpec, &spec); err != nil {
		return nil, fmt.Errorf("core: participation game spec: %w", err)
	}
	g, err := spec.ToParticipation()
	if err != nil {
		return nil, err
	}
	var advSpec ParticipationAdviceSpec
	if err := json.Unmarshal(advice, &advSpec); err != nil {
		return nil, fmt.Errorf("core: participation advice: %w", err)
	}
	p, err := numeric.ParseRat(advSpec.P)
	if err != nil {
		return nil, fmt.Errorf("core: participation advice p: %w", err)
	}
	verdict := &Verdict{Format: FormatParticipation, Details: map[string]string{
		"p": p.RatString(),
	}}
	if advSpec.Tolerance != "" {
		tol, err := numeric.ParseRat(advSpec.Tolerance)
		if err != nil {
			return nil, fmt.Errorf("core: participation tolerance: %w", err)
		}
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
