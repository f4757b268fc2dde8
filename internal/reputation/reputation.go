// Package reputation implements the trust layer of the rationality
// authority: verifiers are "trustable service providers that profit from
// selling general purpose verification procedures ... and therefore would
// like to have a good long-lasting reputation". The paper notes "the
// possibility of having several verifiers, such that their majority is
// trusted. The reputation of the verifiers can be updated according to the
// (majority of their) results", and that dishonest inventors, agents, and
// verifiers "can be reported to a reputation system that audits their
// actions".
//
// This package provides exactly that: a concurrent-safe registry of
// reputation scores, reputation-weighted majority voting across verifier
// verdicts (WeightedVote) with
// automatic agreement-based score updates, and an append-only audit log of
// misbehaviour reports.
package reputation

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Score tracks a party's track record. The reputation estimate is the
// Laplace-smoothed success rate (Agreements+1)/(Total+2), so unknown parties
// start at 1/2 and a single observation cannot saturate trust.
type Score struct {
	Agreements    int
	Disagreements int
	// Unresponsive counts timeouts: the party was asked and never answered.
	// Silence is weaker evidence than a wrong answer — a network partition
	// looks identical to a stalling adversary — so unresponsiveness drags
	// the denominator at half weight and only up to UnresponsiveCap, giving
	// a dead-but-honest party a bounded floor a liar falls straight through.
	Unresponsive int
}

// UnresponsiveWeight is the denominator weight of one unresponsive report
// relative to a disagreement (which weighs 1).
const UnresponsiveWeight = 0.5

// UnresponsiveCap bounds how many unresponsive reports count against a
// party. At the cap, an otherwise-clean party's reputation floors at
// 1/(2+Cap·Weight) = 0.2 — below most quorum thresholds but above where a
// proven liar lands, so timeouts alone degrade trust without forging
// evidence of dishonesty.
const UnresponsiveCap = 6

// Reputation returns the smoothed estimate in (0, 1).
func (s Score) Reputation() float64 {
	penalty := float64(min(s.Unresponsive, UnresponsiveCap)) * UnresponsiveWeight
	return float64(s.Agreements+1) / (float64(s.Agreements+s.Disagreements+2) + penalty)
}

// Registry is a concurrent-safe reputation store keyed by party identifier.
// The zero value is NOT usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	scores map[string]Score
	log    []Event
	now    func() time.Time
}

// Event is one audit-log entry.
type Event struct {
	Time    time.Time
	Party   string
	Kind    EventKind
	Details string
}

// EventKind classifies audit events.
type EventKind int

// Audit event kinds.
const (
	// Agreed: the party's verdict matched the majority.
	Agreed EventKind = iota + 1
	// Disagreed: the party's verdict contradicted the majority.
	Disagreed
	// Misbehaved: a verifiable offence (forged proof, false advice, broken
	// commitment) with evidence in Details.
	Misbehaved
	// Unresponsive: the party timed out when consulted. Counted at reduced,
	// capped weight — see Score.Unresponsive.
	Unresponsive
)

func (k EventKind) String() string {
	switch k {
	case Agreed:
		return "agreed"
	case Disagreed:
		return "disagreed"
	case Misbehaved:
		return "misbehaved"
	case Unresponsive:
		return "unresponsive"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// NewRegistry creates an empty registry using wall-clock time.
func NewRegistry() *Registry {
	return NewRegistryWithClock(time.Now)
}

// NewRegistryWithClock creates a registry with an injectable clock for
// deterministic tests.
func NewRegistryWithClock(now func() time.Time) *Registry {
	return &Registry{scores: make(map[string]Score), now: now}
}

// Reputation returns the party's current smoothed reputation (1/2 for
// unknown parties).
func (r *Registry) Reputation(party string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scores[party].Reputation()
}

// Trusted reports whether the party's reputation meets the threshold.
func (r *Registry) Trusted(party string, threshold float64) bool {
	return r.Reputation(party) >= threshold
}

// ReportAgreement records whether a party agreed with the majority.
func (r *Registry) ReportAgreement(party string, agreed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.scores[party]
	kind := Agreed
	if agreed {
		s.Agreements++
	} else {
		s.Disagreements++
		kind = Disagreed
	}
	r.scores[party] = s
	r.log = append(r.log, Event{Time: r.now(), Party: party, Kind: kind})
}

// ReportMisbehaviour records a verifiable offence with evidence. It counts
// as a disagreement with honesty and is logged with the evidence so the
// party "can be excluded from acting in games" (§7).
func (r *Registry) ReportMisbehaviour(party, evidence string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.scores[party]
	s.Disagreements++
	r.scores[party] = s
	r.log = append(r.log, Event{Time: r.now(), Party: party, Kind: Misbehaved, Details: evidence})
}

// ReportUnresponsive records that a party timed out when consulted, with
// the circumstances in evidence. Unlike ReportMisbehaviour this is NOT
// proof of dishonesty — the charge is half-weight and capped (see
// Score.Unresponsive), so repeated timeouts decay trust more slowly than
// lying and bottom out instead of saturating.
func (r *Registry) ReportUnresponsive(party, evidence string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.scores[party]
	s.Unresponsive++
	r.scores[party] = s
	r.log = append(r.log, Event{Time: r.now(), Party: party, Kind: Unresponsive, Details: evidence})
}

// Events returns a copy of the audit log in chronological order.
func (r *Registry) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.log...)
}

// ErrNoVerdicts is returned by WeightedVote when no verdicts are supplied.
var ErrNoVerdicts = errors.New("reputation: no verdicts to vote on")

// ErrTie is returned by WeightedVote when neither the voters' aggregate
// reputations nor the vote counts separate the sides.
var ErrTie = errors.New("reputation: verdicts tied; no majority")

// voters returns the parties of a verdict map in sorted order. Both the
// weight sums and the audit log must not depend on map iteration order:
// float addition is not associative, so summing reputations in a random
// order could flip a hairline weight comparison between runs of the very
// same vote.
func voters(verdicts map[string]bool) []string {
	parties := make([]string, 0, len(verdicts))
	for p := range verdicts {
		parties = append(parties, p)
	}
	sort.Strings(parties)
	return parties
}

// tally sums each side of a vote: how many verifiers voted accept/reject
// and the aggregate current reputation behind each side, accumulated in
// sorted-party order for run-to-run determinism.
func (r *Registry) tally(verdicts map[string]bool) (accepts, rejects int, acceptW, rejectW float64) {
	for _, party := range voters(verdicts) {
		w := r.Reputation(party)
		if verdicts[party] {
			accepts++
			acceptW += w
		} else {
			rejects++
			rejectW += w
		}
	}
	return accepts, rejects, acceptW, rejectW
}

// record updates every voter's reputation by agreement with the outcome,
// in sorted order so the audit log is deterministic.
func (r *Registry) record(verdicts map[string]bool, outcome bool) {
	for _, party := range voters(verdicts) {
		r.ReportAgreement(party, verdicts[party] == outcome)
	}
}

// WeightedVote aggregates verdicts with each vote weighted by the voter's
// current reputation — the paper's "majority of the verifiers is trusted"
// with trust made quantitative: a verifier that has lied before moves the
// outcome less than one with a clean record. A weight tie falls back to
// raw counts; ErrTie is returned only when both tie, and then nothing is
// updated. On success every voter's reputation is updated by agreement
// with the outcome, so a dissenting verifier's reputation decays.
func (r *Registry) WeightedVote(verdicts map[string]bool) (bool, error) {
	if len(verdicts) == 0 {
		return false, ErrNoVerdicts
	}
	accepts, rejects, acceptW, rejectW := r.tally(verdicts)
	var outcome bool
	switch {
	case acceptW != rejectW:
		outcome = acceptW > rejectW
	case accepts != rejects:
		outcome = accepts > rejects
	default:
		return false, ErrTie
	}
	r.record(verdicts, outcome)
	return outcome, nil
}
