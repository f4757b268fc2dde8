// Package trust turns per-peer reputation into an enforcement decision:
// quarantine. The reputation registry records evidence — refutations,
// timeouts, clean audits — but by itself it only ever reports a number.
// This package watches that number and drives a small state machine per
// peer:
//
//	active ──(reputation < threshold)──▶ quarantined
//	quarantined ──(probation timer elapses)──▶ probation
//	probation ──(reputation recovers past the readmit bar)──▶ active
//	probation ──(any new charge)──▶ quarantined   (a strike, timer restarts)
//
// While a peer is quarantined the federation gate keeps counting its
// deltas but refuses to ingest them, and the anti-entropy puller stops
// dialing it. Probation is the earned re-entry path: ingestion resumes,
// and only a run of clean exchanges — each crediting the peer — restores
// active standing, while a single fresh refutation re-quarantines it
// immediately. The paper's premise is that misbehaviour must be
// punishable by evidence; this is the punishment arm.
//
// State is persisted to a JSON file on every change (atomic
// write-temp-rename, fsynced) so a quarantine survives restart even
// though the in-memory reputation counters do not: the verdict "this
// peer lied" outlives the process that proved it.
package trust

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rationality/internal/fsx"
	"rationality/internal/reputation"
)

// State is a peer's standing with this authority.
type State string

// Peer standings. Every peer starts Active; only evidence moves it.
const (
	// Active: deltas are ingested, the sync loop dials the peer.
	Active State = "active"
	// Quarantined: deltas are counted but refused, the sync loop skips
	// the peer until the probation timer elapses.
	Quarantined State = "quarantined"
	// Probation: ingestion has resumed on trial; clean exchanges credit
	// the peer back to Active, one new charge re-quarantines it.
	Probation State = "probation"
)

// DefaultThreshold is the reputation below which a peer is quarantined.
// A fresh peer starts at 0.5 and each refutation (with no offsetting
// agreements) moves it to 1/(k+2): the third charge lands at 0.2 < 0.25,
// so a peer that only ever lies is gone after three proven refutations.
const DefaultThreshold = 0.25

// DefaultProbation is how long a quarantine lasts before the peer is
// allowed a probationary retry.
const DefaultProbation = 30 * time.Minute

// Config parameterizes a Policy. Registry is required; everything else
// has a production default.
type Config struct {
	// Registry is the shared reputation store charges and credits flow
	// through. Required.
	Registry *reputation.Registry
	// Threshold quarantines a peer when its reputation falls below it.
	// Defaults to DefaultThreshold.
	Threshold float64
	// Readmit is the reputation a probationary peer must climb back past
	// to regain Active standing. Defaults to 2×Threshold (capped at 0.5,
	// the blank-slate reputation, so readmission is always reachable).
	Readmit float64
	// Probation is the quarantine duration before a trial re-entry.
	// Defaults to DefaultProbation.
	Probation time.Duration
	// Path, when non-empty, persists peer states across restarts.
	Path string
	// Now is the clock; defaults to time.Now. Injectable for tests.
	Now func() time.Time
	// OnChange, when set, observes every state transition. It is called
	// outside the policy lock, so it may call back into the Policy.
	OnChange func(peer string, from, to State, detail string)
}

// Policy is the concurrent-safe quarantine state machine. Build with New.
type Policy struct {
	cfg Config

	mu    sync.Mutex
	peers map[string]*peerState
}

// peerState is the tracked standing of one peer.
type peerState struct {
	State State `json:"state"`
	// Since is when the peer entered its current state.
	Since time.Time `json:"since"`
	// Refutations counts charges levied against the peer, ever.
	Refutations uint64 `json:"refutations"`
}

// Status is one peer's standing as reported to operators: the state
// machine's view joined with the live reputation number.
type Status struct {
	Peer string `json:"peer"`
	// State is the peer's standing (Active, Quarantined, or Probation).
	State State `json:"state"`
	// Since is when the peer entered that state.
	Since time.Time `json:"since"`
	// Reputation is the peer's current smoothed reputation.
	Reputation float64 `json:"reputation"`
	// Refutations counts every charge ever levied against the peer.
	Refutations uint64 `json:"refutations"`
}

// transition is a pending OnChange notification, fired after unlock.
type transition struct {
	peer     string
	from, to State
	detail   string
}

// stateFile is the on-disk shape. Versioned so a future format change
// can migrate instead of misparse.
type stateFile struct {
	Version int                   `json:"version"`
	Peers   map[string]*peerState `json:"peers"`
}

// New builds a Policy, loading persisted peer states from cfg.Path when
// the file exists. Reputation counters are NOT persisted — a restarted
// authority re-earns its opinion of everyone — but standing is: a peer
// quarantined by evidence stays quarantined across the restart.
func New(cfg Config) (*Policy, error) {
	if cfg.Registry == nil {
		return nil, errors.New("trust: Config.Registry is required")
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultThreshold
	}
	if cfg.Readmit <= 0 {
		cfg.Readmit = min(2*cfg.Threshold, 0.5)
	}
	if cfg.Probation <= 0 {
		cfg.Probation = DefaultProbation
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	p := &Policy{cfg: cfg, peers: make(map[string]*peerState)}
	if cfg.Path != "" {
		if err := p.load(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// peer returns the tracked state for id, creating an Active entry on
// first sight. Callers hold p.mu.
func (p *Policy) peer(id string) *peerState {
	ps := p.peers[id]
	if ps == nil {
		ps = &peerState{State: Active, Since: p.cfg.Now()}
		p.peers[id] = ps
	}
	return ps
}

// Charge records evidence that the peer vouched for a refuted verdict:
// a misbehaviour report through the registry, then a threshold check.
// An active peer whose reputation has decayed past the threshold is
// quarantined; a probationary peer is re-quarantined by ANY charge —
// fresh evidence during a trial is a strike, whatever the running score.
func (p *Policy) Charge(peer, evidence string) {
	p.cfg.Registry.ReportMisbehaviour(peer, evidence)
	rep := p.cfg.Registry.Reputation(peer)

	p.mu.Lock()
	ps := p.peer(peer)
	ps.Refutations++
	var tr *transition
	switch {
	case ps.State == Probation:
		tr = p.move(peer, ps, Quarantined,
			fmt.Sprintf("charged on probation (reputation %.3f): %s", rep, evidence))
	case ps.State == Active && rep < p.cfg.Threshold:
		tr = p.move(peer, ps, Quarantined,
			fmt.Sprintf("reputation %.3f fell below threshold %.3f: %s", rep, p.cfg.Threshold, evidence))
	}
	p.persistLocked()
	p.mu.Unlock()
	p.fire(tr)
}

// Credit records a clean observation of the peer — an ingested delta
// whose audited records all re-verified, an agreeing quorum vote — and
// readmits a probationary peer whose reputation has recovered past the
// readmit bar.
func (p *Policy) Credit(peer string) {
	p.cfg.Registry.ReportAgreement(peer, true)
	rep := p.cfg.Registry.Reputation(peer)

	p.mu.Lock()
	ps := p.peer(peer)
	var tr *transition
	if ps.State == Probation && rep >= p.cfg.Readmit {
		tr = p.move(peer, ps, Active,
			fmt.Sprintf("reputation %.3f recovered past %.3f", rep, p.cfg.Readmit))
	}
	p.persistLocked()
	p.mu.Unlock()
	p.fire(tr)
}

// Allowed reports whether the peer's deltas may be ingested and its
// address dialed. It is also where the probation timer takes effect: the
// first Allowed call after a quarantine has aged past the probation
// duration promotes the peer to Probation and answers true.
func (p *Policy) Allowed(peer string) bool {
	p.mu.Lock()
	ps, ok := p.peers[peer]
	if !ok {
		p.mu.Unlock()
		return true // unknown peers are active; don't allocate for a read
	}
	var tr *transition
	allowed := true
	if ps.State == Quarantined {
		if p.cfg.Now().Sub(ps.Since) >= p.cfg.Probation {
			tr = p.move(peer, ps, Probation,
				fmt.Sprintf("probation after %s quarantined", p.cfg.Probation))
			p.persistLocked()
		} else {
			allowed = false
		}
	}
	p.mu.Unlock()
	p.fire(tr)
	return allowed
}

// State returns the peer's current standing (Active for unknown peers),
// applying the same probation-timer promotion as Allowed.
func (p *Policy) State(peer string) State {
	p.Allowed(peer)
	p.mu.Lock()
	defer p.mu.Unlock()
	if ps, ok := p.peers[peer]; ok {
		return ps.State
	}
	return Active
}

// Status reports one peer's standing joined with its live reputation.
func (p *Policy) Status(peer string) Status {
	st := p.State(peer)
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Status{Peer: peer, State: st, Reputation: p.cfg.Registry.Reputation(peer)}
	if ps, ok := p.peers[peer]; ok {
		s.Since = ps.Since
		s.Refutations = ps.Refutations
	}
	return s
}

// Snapshot returns every tracked peer's status, sorted by peer ID for
// deterministic output. Peers that were never charged or credited are
// not tracked and do not appear.
func (p *Policy) Snapshot() []Status {
	p.mu.Lock()
	ids := make([]string, 0, len(p.peers))
	for id := range p.peers {
		ids = append(ids, id)
	}
	p.mu.Unlock()
	sort.Strings(ids)
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		out = append(out, p.Status(id))
	}
	return out
}

// Quarantined counts peers currently in the Quarantined state.
func (p *Policy) Quarantined() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ps := range p.peers {
		if ps.State == Quarantined {
			n++
		}
	}
	return n
}

// move transitions a peer's state under p.mu and returns the
// notification to fire after unlock.
func (p *Policy) move(peer string, ps *peerState, to State, detail string) *transition {
	from := ps.State
	ps.State = to
	ps.Since = p.cfg.Now()
	return &transition{peer: peer, from: from, to: to, detail: detail}
}

// fire delivers a pending OnChange notification outside the lock.
func (p *Policy) fire(tr *transition) {
	if tr != nil && p.cfg.OnChange != nil {
		p.cfg.OnChange(tr.peer, tr.from, tr.to, tr.detail)
	}
}

// load reads the persisted state file, tolerating absence (first run).
func (p *Policy) load() error {
	data, err := os.ReadFile(p.cfg.Path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("trust: read state: %w", err)
	}
	var f stateFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("trust: parse state %s: %w", p.cfg.Path, err)
	}
	if f.Version != 1 {
		return fmt.Errorf("trust: state file %s has unknown version %d", p.cfg.Path, f.Version)
	}
	for id, ps := range f.Peers {
		if ps == nil {
			continue
		}
		switch ps.State {
		case Active, Quarantined, Probation:
		default:
			return fmt.Errorf("trust: state file %s has unknown peer state %q", p.cfg.Path, ps.State)
		}
		p.peers[id] = ps
	}
	return nil
}

// persistLocked writes the state file atomically (temp, fsync, rename,
// directory sync). Callers hold p.mu. Persistence errors are swallowed
// after the initial load proved the path writable-or-absent: a full disk
// must not turn every charge into a failed ingest, and the in-memory
// policy stays correct for the life of the process.
func (p *Policy) persistLocked() {
	if p.cfg.Path == "" {
		return
	}
	f := stateFile{Version: 1, Peers: p.peers}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return
	}
	tmp := p.cfg.Path + ".tmp"
	file, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return
	}
	_, werr := file.Write(data)
	serr := file.Sync()
	cerr := file.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, p.cfg.Path); err != nil {
		os.Remove(tmp)
		return
	}
	fsx.SyncDir(filepath.Dir(p.cfg.Path))
}
