package reputation

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func fixedClock() func() time.Time {
	t0 := time.Date(2026, 6, 11, 0, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Second)
	}
}

func TestUnknownPartyStartsAtHalf(t *testing.T) {
	r := NewRegistry()
	if got := r.Reputation("nobody"); got != 0.5 {
		t.Errorf("reputation = %f, want 0.5", got)
	}
	if r.Trusted("nobody", 0.6) {
		t.Error("unknown party should not clear a 0.6 threshold")
	}
	if !r.Trusted("nobody", 0.5) {
		t.Error("unknown party should clear a 0.5 threshold")
	}
}

func TestReputationUpdates(t *testing.T) {
	r := NewRegistryWithClock(fixedClock())
	for i := 0; i < 8; i++ {
		r.ReportAgreement("good", true)
	}
	r.ReportAgreement("good", false)
	// (8+1)/(9+2) = 9/11.
	if got := r.Reputation("good"); got != 9.0/11.0 {
		t.Errorf("reputation = %f, want %f", got, 9.0/11.0)
	}
	s := scoreOf(r, "good")
	if s.Agreements != 8 || s.Disagreements != 1 {
		t.Errorf("score = %+v", s)
	}
}

func TestReportMisbehaviourLogsEvidence(t *testing.T) {
	r := NewRegistryWithClock(fixedClock())
	r.ReportMisbehaviour("evil-inventor", "forged NashMax witness for profile [0 1]")
	events := r.Events()
	if len(events) != 1 {
		t.Fatalf("%d events", len(events))
	}
	e := events[0]
	if e.Party != "evil-inventor" || e.Kind != Misbehaved || e.Details == "" {
		t.Errorf("event = %+v", e)
	}
	if got := r.Reputation("evil-inventor"); got >= 0.5 {
		t.Errorf("misbehaving party's reputation %f should drop below 0.5", got)
	}
}

func TestEventsAreCopied(t *testing.T) {
	r := NewRegistryWithClock(fixedClock())
	r.ReportAgreement("a", true)
	events := r.Events()
	events[0].Party = "tampered"
	if r.Events()[0].Party != "a" {
		t.Error("Events leaked internal state")
	}
}

func TestMajorityVoteAccepts(t *testing.T) {
	r := NewRegistryWithClock(fixedClock())
	outcome, err := r.WeightedVote(map[string]bool{"v1": true, "v2": true, "v3": false})
	if err != nil {
		t.Fatal(err)
	}
	if !outcome {
		t.Error("majority said accept")
	}
	if r.Reputation("v1") <= 0.5 || r.Reputation("v2") <= 0.5 {
		t.Error("agreeing verifiers should gain reputation")
	}
	if r.Reputation("v3") >= 0.5 {
		t.Error("dissenting verifier should lose reputation")
	}
}

func TestMajorityVoteRejects(t *testing.T) {
	r := NewRegistryWithClock(fixedClock())
	outcome, err := r.WeightedVote(map[string]bool{"v1": false, "v2": false, "v3": true})
	if err != nil {
		t.Fatal(err)
	}
	if outcome {
		t.Error("majority said reject")
	}
}

func TestMajorityVoteEdgeCases(t *testing.T) {
	r := NewRegistryWithClock(fixedClock())
	if _, err := r.WeightedVote(nil); !errors.Is(err, ErrNoVerdicts) {
		t.Errorf("err = %v, want ErrNoVerdicts", err)
	}
	if _, err := r.WeightedVote(map[string]bool{"a": true, "b": false}); !errors.Is(err, ErrTie) {
		t.Errorf("err = %v, want ErrTie", err)
	}
	// Ties must not move reputations.
	if r.Reputation("a") != 0.5 || r.Reputation("b") != 0.5 {
		t.Error("tie moved reputations")
	}
}

// seedScore drives a party to a chosen track record so vote tests can set
// up unequal reputations deterministically.
func seedScore(r *Registry, party string, agreements, disagreements int) {
	for i := 0; i < agreements; i++ {
		r.ReportAgreement(party, true)
	}
	for i := 0; i < disagreements; i++ {
		r.ReportAgreement(party, false)
	}
}

func TestVoteTieBreaking(t *testing.T) {
	// seed maps party -> (agreements, disagreements) recorded before the
	// vote, so sides can carry unequal aggregate reputations.
	type seed struct{ agree, disagree int }
	cases := []struct {
		name     string
		seeds    map[string]seed
		verdicts map[string]bool
		weighted func(t *testing.T, outcome bool, err error)
	}{
		{
			name:     "odd quorum: counts decide both votes",
			verdicts: map[string]bool{"a": true, "b": true, "c": false},
			weighted: wantOutcome(true),
		},
		{
			name:     "even split, equal weights: ErrTie from both",
			verdicts: map[string]bool{"a": true, "b": false},
			weighted: wantTie(),
		},
		{
			name:     "even split, heavier accepter: weight breaks the count tie",
			seeds:    map[string]seed{"trusted": {agree: 8}},
			verdicts: map[string]bool{"trusted": true, "fresh": false},
			weighted: wantOutcome(true),
		},
		{
			name:     "even split, heavier rejecter: weight tie-break goes the other way",
			seeds:    map[string]seed{"trusted": {agree: 8}},
			verdicts: map[string]bool{"trusted": false, "fresh": true},
			weighted: wantOutcome(false),
		},
		{
			name: "count majority of discredited voters: weighted vote flips it",
			// Two liars (rep 1/12 each, sum ~0.17) outnumber one proven
			// verifier (rep 11/12): the vote follows the earned trust, not
			// the count.
			seeds: map[string]seed{
				"liar1": {disagree: 10},
				"liar2": {disagree: 10},
				"solid": {agree: 10},
			},
			verdicts: map[string]bool{"liar1": false, "liar2": false, "solid": true},
			weighted: wantOutcome(true),
		},
		{
			name: "weight tie with count majority: weighted vote falls back to counts",
			// Four accepters at reputation 1/4 (0 agreements, 2
			// disagreements each) sum to exactly 1.0, as do two fresh
			// rejecters at 1/2 — both exact binary fractions, so the
			// weights tie bit-for-bit and the 4-vs-2 count decides.
			seeds: map[string]seed{
				"a1": {disagree: 2}, "a2": {disagree: 2},
				"a3": {disagree: 2}, "a4": {disagree: 2},
			},
			verdicts: map[string]bool{
				"a1": true, "a2": true, "a3": true, "a4": true,
				"r1": false, "r2": false,
			},
			weighted: wantOutcome(true),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistryWithClock(fixedClock())
			for party, s := range tc.seeds {
				seedScore(r, party, s.agree, s.disagree)
			}
			outcome, err := r.WeightedVote(tc.verdicts)
			t.Run("weighted", func(t *testing.T) { tc.weighted(t, outcome, err) })
			if err != nil {
				// A tie must not move any voter's reputation.
				for party := range tc.verdicts {
					if _, seeded := tc.seeds[party]; !seeded && r.Reputation(party) != 0.5 {
						t.Errorf("tie moved %s to %f", party, r.Reputation(party))
					}
				}
			}
		})
	}
}

func wantOutcome(want bool) func(*testing.T, bool, error) {
	return func(t *testing.T, outcome bool, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("err = %v, want outcome %v", err, want)
		}
		if outcome != want {
			t.Errorf("outcome = %v, want %v", outcome, want)
		}
	}
}

func wantTie() func(*testing.T, bool, error) {
	return func(t *testing.T, _ bool, err error) {
		t.Helper()
		if !errors.Is(err, ErrTie) {
			t.Errorf("err = %v, want ErrTie", err)
		}
	}
}

// A successful vote — tie-broken or not — must update every voter.
func TestVoteTieBreakRecordsAgreement(t *testing.T) {
	r := NewRegistryWithClock(fixedClock())
	seedScore(r, "trusted", 8, 0)
	if _, err := r.WeightedVote(map[string]bool{"trusted": true, "fresh": false}); err != nil {
		t.Fatal(err)
	}
	if s := scoreOf(r, "trusted"); s.Agreements != 9 {
		t.Errorf("trusted agreements = %d, want 9", s.Agreements)
	}
	if s := scoreOf(r, "fresh"); s.Disagreements != 1 {
		t.Errorf("fresh disagreements = %d, want 1", s.Disagreements)
	}
}

func TestWeightedVoteEmpty(t *testing.T) {
	r := NewRegistryWithClock(fixedClock())
	if _, err := r.WeightedVote(nil); !errors.Is(err, ErrNoVerdicts) {
		t.Errorf("err = %v, want ErrNoVerdicts", err)
	}
}

func TestRegistryConcurrentSafety(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.ReportAgreement("p", i%2 == 0)
				_ = r.Reputation("p")
				_, _ = r.WeightedVote(map[string]bool{"a": true, "b": true, "c": false})
			}
		}(i)
	}
	wg.Wait()
	s := scoreOf(r, "p")
	if s.Agreements+s.Disagreements != 1600 {
		t.Errorf("lost updates: %+v", s)
	}
}

func TestEventKindString(t *testing.T) {
	if Agreed.String() != "agreed" || Disagreed.String() != "disagreed" || Misbehaved.String() != "misbehaved" {
		t.Error("EventKind strings wrong")
	}
}

// Repeated majority voting drives an always-dissenting verifier's
// reputation towards 0 and the honest majority's towards 1 — the paper's
// long-lasting-reputation incentive.
func TestReputationConvergence(t *testing.T) {
	r := NewRegistryWithClock(fixedClock())
	for i := 0; i < 50; i++ {
		if _, err := r.WeightedVote(map[string]bool{"h1": true, "h2": true, "liar": false}); err != nil {
			t.Fatal(err)
		}
	}
	if r.Reputation("h1") < 0.9 {
		t.Errorf("honest verifier at %f, want > 0.9", r.Reputation("h1"))
	}
	if r.Reputation("liar") > 0.1 {
		t.Errorf("dissenter at %f, want < 0.1", r.Reputation("liar"))
	}
}

// Unresponsiveness decays trust at half weight and bottoms out at the cap:
// a dead-but-honest party keeps a floor a proven liar falls through.
func TestReportUnresponsiveBoundedDecay(t *testing.T) {
	r := NewRegistryWithClock(fixedClock())

	r.ReportUnresponsive("slow", "timed out after 10ms")
	gotOne := r.Reputation("slow")
	if want := 1.0 / 2.5; gotOne != want {
		t.Errorf("one timeout: reputation=%f, want %f", gotOne, want)
	}

	// Slower than lying: one disagreement costs more than one timeout.
	r.ReportMisbehaviour("liar", "served a refuted verdict")
	if lied := r.Reputation("liar"); lied >= gotOne {
		t.Errorf("one lie (%f) should cost more than one timeout (%f)", lied, gotOne)
	}

	// Bounded: past the cap, further timeouts change nothing.
	for i := 0; i < 3*UnresponsiveCap; i++ {
		r.ReportUnresponsive("slow", "timed out")
	}
	floor := 1.0 / (2.0 + float64(UnresponsiveCap)*UnresponsiveWeight)
	if got := r.Reputation("slow"); got != floor {
		t.Errorf("capped timeouts: reputation=%f, want floor %f", got, floor)
	}

	// A liar charged the same number of times has no such floor.
	for i := 0; i < 3*UnresponsiveCap; i++ {
		r.ReportMisbehaviour("liar", "served a refuted verdict")
	}
	if r.Reputation("liar") >= r.Reputation("slow") {
		t.Errorf("liar (%f) should sit below the unresponsive floor (%f)",
			r.Reputation("liar"), r.Reputation("slow"))
	}

	// The audit log names the timeouts with their evidence.
	var unresponsive int
	for _, e := range r.Events() {
		if e.Kind == Unresponsive {
			unresponsive++
			if e.Details == "" {
				t.Error("unresponsive event lost its evidence")
			}
		}
	}
	if unresponsive != 3*UnresponsiveCap+1 {
		t.Errorf("logged %d unresponsive events, want %d", unresponsive, 3*UnresponsiveCap+1)
	}
	if Unresponsive.String() != "unresponsive" {
		t.Errorf("Unresponsive.String() = %q", Unresponsive.String())
	}
}

// scoreOf returns the raw score the registry holds for party.
func scoreOf(r *Registry, party string) Score {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scores[party]
}
