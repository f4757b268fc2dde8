// Package proof implements the paper's §3 proof scheme as explicit,
// serializable certificate objects plus an independent checker.
//
// The paper sketches, in the Coq theorem prover, a proof that a strategy
// profile NSi is a (maximal) pure Nash equilibrium. The proof enumerates all
// strategy profiles (Proposition allStrat, Fig. 2 line 30), classifies each
// as an equilibrium or exhibits a deviation counterexample (allNash,
// line 33), and certifies maximality by comparing NSi with every other
// equilibrium (NashMax, line 36). We cannot ship Coq, so the same proof
// structure is realized as plain data: the inventor produces a Proof, the
// verifier's procedure v() re-derives every step with only local work. A
// forged or truncated proof is rejected with a descriptive error. The
// deliberate cost of this scheme — proof size proportional to the full
// profile space — is exactly the intractability §3 warns about, and is
// measured by the E7 experiment.
package proof

import (
	"encoding/json"
	"fmt"

	"rationality/internal/game"
)

// Mode selects which optimality direction a proof certifies, mirroring the
// paper's remark that NashMax can be flipped to certify minimality.
type Mode int

// Proof modes.
const (
	// MaxNash certifies that the advised profile is a maximal equilibrium.
	MaxNash Mode = iota + 1
	// MinNash certifies that the advised profile is a minimal equilibrium.
	MinNash
	// AnyNash certifies equilibrium membership only (no optimality step).
	AnyNash
)

func (m Mode) String() string {
	switch m {
	case MaxNash:
		return "max-nash"
	case MinNash:
		return "min-nash"
	case AnyNash:
		return "any-nash"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Counterexample witnesses that a profile is NOT an equilibrium: agent Agent
// strictly gains by switching to strategy Strategy. It corresponds to the
// "i and si such as u(i,Si) < u(i, change(Si, si, i))" step of §3.
type Counterexample struct {
	Profile  game.Profile `json:"profile"`
	Agent    int          `json:"agent"`
	Strategy int          `json:"strategy"`
}

// ComparisonKind says how another equilibrium relates to the advised one in
// the NashMax step.
type ComparisonKind int

// Comparison kinds for maximality witnesses.
const (
	// LeAdvised: the other equilibrium is ≤u the advised one (leStrat).
	LeAdvised ComparisonKind = iota + 1
	// NoComp: the two equilibria are ≤u-incomparable, witnessed by a pair of
	// agents pulling in opposite directions.
	NoComp
)

func (k ComparisonKind) String() string {
	switch k {
	case LeAdvised:
		return "le-advised"
	case NoComp:
		return "no-comp"
	default:
		return fmt.Sprintf("ComparisonKind(%d)", int(k))
	}
}

// MaxWitness certifies, for one other equilibrium, that it does not
// ≥u-dominate the advised profile.
type MaxWitness struct {
	Equilibrium game.Profile   `json:"equilibrium"`
	Kind        ComparisonKind `json:"kind"`
	// For NoComp: AgentFavoringOther strictly prefers Equilibrium and
	// AgentFavoringAdvised strictly prefers the advised profile.
	AgentFavoringOther   int `json:"agentFavoringOther,omitempty"`
	AgentFavoringAdvised int `json:"agentFavoringAdvised,omitempty"`
}

// Proof is the full §3 certificate. Together, Equilibria and NonEquilibria
// must enumerate the entire profile space (the allStrat step).
type Proof struct {
	// Mode selects the optimality direction certified.
	Mode Mode `json:"mode"`
	// Advised is the profile the inventor recommends (NSi).
	Advised game.Profile `json:"advised"`
	// Equilibria lists every pure Nash equilibrium (the allNash step).
	Equilibria []game.Profile `json:"equilibria"`
	// NonEquilibria carries one deviation counterexample per non-equilibrium
	// profile.
	NonEquilibria []Counterexample `json:"nonEquilibria"`
	// MaxWitnesses has one comparison per equilibrium other than Advised
	// (present in MaxNash and MinNash modes).
	MaxWitnesses []MaxWitness `json:"maxWitnesses,omitempty"`
}

// Steps returns the number of elementary proof steps: one per enumerated
// profile plus one per optimality comparison. It is the size measure used by
// experiment E7.
func (p *Proof) Steps() int {
	return len(p.Equilibria) + len(p.NonEquilibria) + len(p.MaxWitnesses)
}

// Marshal encodes the proof to its canonical JSON wire form.
func (p *Proof) Marshal() ([]byte, error) {
	return json.Marshal(p)
}
