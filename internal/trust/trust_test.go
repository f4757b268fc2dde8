package trust

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"rationality/internal/reputation"
)

// testClock is a manually-advanced clock shared by registry and policy.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}
func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestPolicy(t *testing.T, path string, clk *testClock, onChange func(string, State, State, string)) *Policy {
	t.Helper()
	reg := reputation.NewRegistryWithClock(clk.now)
	p, err := New(Config{
		Registry:  reg,
		Threshold: 0.25,
		Probation: 10 * time.Minute,
		Path:      path,
		Now:       clk.now,
		OnChange:  onChange,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Three refutations take a fresh peer from 0.5 to 0.2 < 0.25: quarantine
// by evidence, with the transition observed exactly once.
func TestChargeQuarantinesPastThreshold(t *testing.T) {
	clk := newTestClock()
	var changes []string
	p := newTestPolicy(t, "", clk, func(peer string, from, to State, detail string) {
		changes = append(changes, peer+":"+string(from)+">"+string(to))
	})

	p.Charge("byz", "verdict refuted by local re-verification")
	p.Charge("byz", "verdict refuted by local re-verification")
	if !p.Allowed("byz") || p.State("byz") != Active {
		t.Fatalf("two charges should not quarantine: state=%s", p.State("byz"))
	}
	p.Charge("byz", "verdict refuted by local re-verification")
	if p.Allowed("byz") {
		t.Error("third charge should quarantine")
	}
	if got := p.State("byz"); got != Quarantined {
		t.Errorf("state=%s, want %s", got, Quarantined)
	}
	if len(changes) != 1 || changes[0] != "byz:active>quarantined" {
		t.Errorf("transitions=%v, want exactly one active>quarantined", changes)
	}
	st := p.Status("byz")
	if st.Refutations != 3 || st.Reputation >= 0.25 {
		t.Errorf("status=%+v", st)
	}
}

// The probation timer promotes a quarantined peer, clean credits readmit
// it, and a charge during probation is an immediate strike.
func TestProbationAndReadmission(t *testing.T) {
	clk := newTestClock()
	p := newTestPolicy(t, "", clk, nil)

	for i := 0; i < 3; i++ {
		p.Charge("peer", "refuted")
	}
	if p.Allowed("peer") {
		t.Fatal("expected quarantine")
	}

	// Half the probation: still benched.
	clk.advance(5 * time.Minute)
	if p.Allowed("peer") {
		t.Fatal("probation timer fired early")
	}

	// Full probation: allowed again, on trial.
	clk.advance(5 * time.Minute)
	if !p.Allowed("peer") {
		t.Fatal("probation timer never fired")
	}
	if got := p.State("peer"); got != Probation {
		t.Fatalf("state=%s, want %s", got, Probation)
	}

	// A strike during probation re-quarantines regardless of score.
	p.Charge("peer", "refuted again")
	if p.Allowed("peer") || p.State("peer") != Quarantined {
		t.Fatal("charge on probation must re-quarantine")
	}

	// Second probation, then clean credits climb 1/(k+2) back past the
	// readmit bar (2×threshold = 0.5 here).
	clk.advance(10 * time.Minute)
	if !p.Allowed("peer") {
		t.Fatal("second probation never fired")
	}
	for i := 0; p.State("peer") == Probation && i < 50; i++ {
		p.Credit("peer")
	}
	if got := p.State("peer"); got != Active {
		t.Errorf("credits never readmitted: state=%s", got)
	}
	if !p.Allowed("peer") {
		t.Error("readmitted peer must be allowed")
	}
}

// Standing survives restart through the state file; reputation does not,
// and that is the documented contract.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trust.json")
	clk := newTestClock()

	p := newTestPolicy(t, path, clk, nil)
	for i := 0; i < 3; i++ {
		p.Charge("byz", "refuted")
	}
	p.Charge("fine", "one-off") // charged but still active
	if p.Allowed("byz") {
		t.Fatal("expected quarantine before restart")
	}

	// "Restart": a new policy over the same path and a fresh registry.
	p2 := newTestPolicy(t, path, clk, nil)
	if p2.Allowed("byz") {
		t.Error("quarantine lost across restart")
	}
	if got := p2.State("byz"); got != Quarantined {
		t.Errorf("state=%s after restart, want %s", got, Quarantined)
	}
	if got := p2.State("fine"); got != Active {
		t.Errorf("active peer restarted as %s", got)
	}
	if st := p2.Status("byz"); st.Refutations != 3 {
		t.Errorf("refutation count lost across restart: %+v", st)
	}

	// The probation timer keeps running across the restart.
	clk.advance(10 * time.Minute)
	if !p2.Allowed("byz") {
		t.Error("probation timer lost across restart")
	}

	// Snapshot is sorted and complete.
	snap := p2.Snapshot()
	if len(snap) != 2 || snap[0].Peer != "byz" || snap[1].Peer != "fine" {
		t.Errorf("snapshot=%+v", snap)
	}
}

// A corrupt or future-versioned state file refuses to load rather than
// silently forgetting a quarantine.
func TestLoadRejectsBadStateFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trust.json")
	reg := reputation.NewRegistry()

	if err := os.WriteFile(path, []byte("{not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Registry: reg, Path: path}); err == nil {
		t.Error("corrupt state file must not load")
	}

	if err := os.WriteFile(path, []byte(`{"version":99,"peers":{}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Registry: reg, Path: path}); err == nil {
		t.Error("unknown version must not load")
	}

	if _, err := New(Config{Path: path}); err == nil {
		t.Error("nil registry must not construct")
	}
}

// Defaults: quarantine count, unknown peers, and the readmit cap.
func TestDefaultsAndQuarantinedCount(t *testing.T) {
	reg := reputation.NewRegistry()
	p, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Threshold != DefaultThreshold || p.cfg.Probation != DefaultProbation {
		t.Errorf("defaults not applied: %+v", p.cfg)
	}
	if p.cfg.Readmit != 2*DefaultThreshold {
		t.Errorf("readmit default = %f, want %f", p.cfg.Readmit, 2*DefaultThreshold)
	}
	if !p.Allowed("stranger") || p.State("stranger") != Active {
		t.Error("unknown peers must be active")
	}
	if p.Quarantined() != 0 {
		t.Error("no one should be quarantined yet")
	}
	for i := 0; i < 5; i++ {
		p.Charge("byz", "refuted")
	}
	if p.Quarantined() != 1 {
		t.Errorf("Quarantined()=%d, want 1", p.Quarantined())
	}
}
