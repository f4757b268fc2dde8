package proof

import (
	"encoding/json"
	"errors"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"rationality/internal/game"
	"rationality/internal/numeric"
)

func mustBuild(t *testing.T, g *game.Game, advised game.Profile, mode Mode) *Proof {
	t.Helper()
	p, err := Build(g, advised, mode)
	if err != nil {
		t.Fatalf("Build(%v, %v): %v", advised, mode, err)
	}
	return p
}

func TestBuildAndCheckPrisonersDilemma(t *testing.T) {
	g := game.PrisonersDilemma()
	p := mustBuild(t, g, game.Profile{1, 1}, MaxNash)
	if err := Check(g, p); err != nil {
		t.Fatalf("honest proof rejected: %v", err)
	}
	if len(p.Equilibria) != 1 || len(p.NonEquilibria) != 3 {
		t.Errorf("equilibria=%d nonEquilibria=%d", len(p.Equilibria), len(p.NonEquilibria))
	}
	if p.Steps() != 4 {
		t.Errorf("Steps = %d, want 4", p.Steps())
	}
}

func TestBuildRejectsFalseClaim(t *testing.T) {
	g := game.PrisonersDilemma()
	if _, err := Build(g, game.Profile{0, 0}, MaxNash); err == nil {
		t.Fatal("Build proved a non-equilibrium")
	}
	if _, err := Build(g, game.Profile{9, 9}, MaxNash); err == nil {
		t.Fatal("Build accepted an invalid profile")
	}
}

func TestBuildRejectsDominatedAdvice(t *testing.T) {
	g := coordination()
	// [0 0] is an equilibrium but dominated by [1 1]: MaxNash must fail.
	if _, err := Build(g, game.Profile{0, 0}, MaxNash); err == nil {
		t.Fatal("Build certified a dominated equilibrium as maximal")
	}
	// ... but MinNash and AnyNash are fine.
	if _, err := Build(g, game.Profile{0, 0}, MinNash); err != nil {
		t.Fatalf("MinNash: %v", err)
	}
	if _, err := Build(g, game.Profile{0, 0}, AnyNash); err != nil {
		t.Fatalf("AnyNash: %v", err)
	}
	// And the dominant equilibrium is MaxNash-certifiable.
	p := mustBuild(t, g, game.Profile{1, 1}, MaxNash)
	if err := Check(g, p); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestBattleOfSexesIncomparabilityWitness(t *testing.T) {
	g := battleOfSexes()
	p := mustBuild(t, g, game.Profile{0, 0}, MaxNash)
	if err := Check(g, p); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(p.MaxWitnesses) != 1 || p.MaxWitnesses[0].Kind != NoComp {
		t.Fatalf("MaxWitnesses = %+v, want one NoComp", p.MaxWitnesses)
	}
}

func TestMinNashProof(t *testing.T) {
	g := coordination()
	p := mustBuild(t, g, game.Profile{0, 0}, MinNash)
	if err := Check(g, p); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(p.MaxWitnesses) != 1 || p.MaxWitnesses[0].Kind != LeAdvised {
		t.Fatalf("MaxWitnesses = %+v", p.MaxWitnesses)
	}
	// The maximal equilibrium is not minimal.
	if _, err := Build(g, game.Profile{1, 1}, MinNash); err == nil {
		t.Fatal("certified a dominating equilibrium as minimal")
	}
}

func TestBuildBestAdvice(t *testing.T) {
	for _, mode := range []Mode{MaxNash, MinNash, AnyNash} {
		g := battleOfSexes()
		p, err := BuildBestAdvice(g, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := Check(g, p); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
	if _, err := BuildBestAdvice(matchingPennies(), MaxNash); !errors.Is(err, ErrNoEquilibrium) {
		t.Fatalf("err = %v, want ErrNoEquilibrium", err)
	}
}

func TestCheckRejectsNilAndBadMode(t *testing.T) {
	g := game.PrisonersDilemma()
	if err := Check(g, nil); err == nil {
		t.Error("nil proof accepted")
	}
	p := mustBuild(t, g, game.Profile{1, 1}, MaxNash)
	p.Mode = Mode(42)
	if err := Check(g, p); err == nil {
		t.Error("unknown mode accepted")
	}
}

// Forgery tests: each mutation of an honest proof must be rejected at the
// right step.
func TestCheckRejectsForgeries(t *testing.T) {
	build := func() (*game.Game, *Proof) {
		g := battleOfSexes()
		p, err := Build(g, game.Profile{0, 0}, MaxNash)
		if err != nil {
			panic(err)
		}
		return g, p
	}

	cases := []struct {
		name   string
		mutate func(p *Proof)
		step   string
	}{
		{
			name:   "drop a non-equilibrium",
			mutate: func(p *Proof) { p.NonEquilibria = p.NonEquilibria[1:] },
			step:   "allStrat",
		},
		{
			name: "duplicate an equilibrium",
			mutate: func(p *Proof) {
				p.Equilibria = append(p.Equilibria, p.Equilibria[0].Clone())
			},
			step: "allStrat",
		},
		{
			name: "claim a non-equilibrium as equilibrium",
			mutate: func(p *Proof) {
				moved := p.NonEquilibria[0].Profile
				p.NonEquilibria = p.NonEquilibria[1:]
				p.Equilibria = append(p.Equilibria, moved)
			},
			step: "allNash",
		},
		{
			name: "break a counterexample witness",
			mutate: func(p *Proof) {
				// Point the deviation at the strategy already played, which
				// cannot be improving.
				c := &p.NonEquilibria[0]
				c.Strategy = c.Profile[c.Agent]
			},
			step: "allNash",
		},
		{
			name: "out-of-range counterexample agent",
			mutate: func(p *Proof) {
				p.NonEquilibria[0].Agent = 99
			},
			step: "allNash",
		},
		{
			name: "advise a profile outside the equilibria",
			mutate: func(p *Proof) {
				p.Advised = p.NonEquilibria[0].Profile.Clone()
			},
			step: "allNash",
		},
		{
			name:   "drop the optimality witness",
			mutate: func(p *Proof) { p.MaxWitnesses = nil },
			step:   "NashMax",
		},
		{
			name: "forge the witness kind",
			mutate: func(p *Proof) {
				// BoS equilibria are incomparable; claiming ≤u must fail.
				p.MaxWitnesses[0].Kind = LeAdvised
			},
			step: "NashMax",
		},
		{
			name: "witness for a non-equilibrium",
			mutate: func(p *Proof) {
				p.MaxWitnesses[0].Equilibrium = p.NonEquilibria[0].Profile.Clone()
			},
			step: "NashMax",
		},
		{
			name: "wrong incomparability agents",
			mutate: func(p *Proof) {
				w := &p.MaxWitnesses[0]
				w.AgentFavoringOther, w.AgentFavoringAdvised = w.AgentFavoringAdvised, w.AgentFavoringOther
			},
			step: "NashMax",
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, p := build()
			c.mutate(p)
			err := Check(g, p)
			if err == nil {
				t.Fatal("forged proof accepted")
			}
			var ce *CheckError
			if !errors.As(err, &ce) {
				t.Fatalf("error type %T, want *CheckError", err)
			}
			if ce.Step != c.step {
				t.Fatalf("rejected at step %q, want %q (err: %v)", ce.Step, c.step, err)
			}
		})
	}
}

func TestProofRoundTripJSON(t *testing.T) {
	g := battleOfSexes()
	p := mustBuild(t, g, game.Profile{1, 1}, MaxNash)
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q := new(Proof)
	if err := json.Unmarshal(data, q); err != nil {
		t.Fatal(err)
	}
	if err := Check(g, q); err != nil {
		t.Fatalf("decoded proof rejected: %v", err)
	}
	if !q.Advised.Equal(p.Advised) || q.Mode != p.Mode {
		t.Error("round trip lost fields")
	}
	if err := json.Unmarshal([]byte("{broken"), new(Proof)); err == nil {
		t.Error("garbage unmarshalled")
	}
}

func TestCheckErrorMessage(t *testing.T) {
	err := reject("allNash", "profile %v bogus", game.Profile{1, 2})
	if !strings.Contains(err.Error(), "allNash") || !strings.Contains(err.Error(), "[1 2]") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestThreeAgentProof(t *testing.T) {
	g := threeAgentMajority()
	p, err := BuildBestAdvice(g, MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(g, p); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Equilibria) + len(p.NonEquilibria); got != g.NumProfiles() {
		t.Errorf("enumerated %d profiles, want %d", got, g.NumProfiles())
	}
}

// Property: for random games with at least one PNE, Build+Check round-trips,
// and the checker agrees with game.IsMaxNash on the advised profile.
func TestBuildCheckAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		g := game.RandomGame("r", []int{2, 2, 2}, 3, rng.Int63n)
		all := g.AllNash()
		if len(all) == 0 {
			continue
		}
		for _, e := range all {
			p, err := Build(g, e, MaxNash)
			if g.IsMaxNash(e) {
				if err != nil {
					t.Fatalf("trial %d: Build failed on maximal equilibrium: %v", trial, err)
				}
				if err := Check(g, p); err != nil {
					t.Fatalf("trial %d: Check rejected honest proof: %v", trial, err)
				}
				checked++
			} else if err == nil {
				t.Fatalf("trial %d: Build certified non-maximal equilibrium %v", trial, e)
			}
		}
	}
	if checked == 0 {
		t.Fatal("property test exercised no games")
	}
}

// Property: proofs are game-specific — an honest proof for one game is
// rejected against a game with perturbed payoffs (unless the perturbation
// preserves all the inequalities, which the guard below filters out).
func TestProofNotTransferableProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rejected := 0
	for trial := 0; trial < 100; trial++ {
		g := game.RandomGame("a", []int{2, 2}, 4, rng.Int63n)
		all := g.AllNash()
		if len(all) == 0 {
			continue
		}
		p, err := Build(g, all[0], AnyNash)
		if err != nil {
			continue
		}
		h := game.RandomGame("b", []int{2, 2}, 4, rng.Int63n)
		// Only meaningful when the advised profile is not an equilibrium of h.
		if h.IsNash(p.Advised) {
			continue
		}
		if err := Check(h, p); err == nil {
			t.Fatalf("trial %d: proof for game a accepted against game b", trial)
		}
		rejected++
	}
	if rejected == 0 {
		t.Skip("no discriminating instances drawn")
	}
}

func gainHelperCoverage(t *testing.T) {
	g := game.PrisonersDilemma()
	if numeric.Le(gain(g, game.Profile{0, 0}, 0, 1), numeric.Zero()) {
		t.Error("defecting against cooperate should strictly gain")
	}
}

func TestGainHelper(t *testing.T) { gainHelperCoverage(t) }

// matchingPennies has no pure Nash equilibrium.
func matchingPennies() *game.Game {
	return game.NewBimatrix("matching-pennies",
		[][]int64{{1, -1}, {-1, 1}},
		[][]int64{{-1, 1}, {1, -1}},
	)
}

// battleOfSexes has two ≤u-incomparable pure equilibria, [0 0] and [1 1].
func battleOfSexes() *game.Game {
	return game.NewBimatrix("battle-of-the-sexes",
		[][]int64{{2, 0}, {0, 1}},
		[][]int64{{1, 0}, {0, 2}},
	)
}

// coordination has two equilibria; [1 1] strictly ≥u-dominates [0 0].
func coordination() *game.Game {
	return game.NewBimatrix("coordination",
		[][]int64{{1, 0}, {0, 2}},
		[][]int64{{1, 0}, {0, 2}},
	)
}

// threeAgentMajority is a 3-agent, 2-strategy majority coordination game:
// each agent gains 1 when it sides with the majority, else 0.
func threeAgentMajority() *game.Game {
	g, err := game.FromFunc("majority-3", []int{2, 2, 2}, func(i int, p game.Profile) *big.Rat {
		if p[(i+1)%3] == p[i] || p[(i+2)%3] == p[i] {
			return numeric.One()
		}
		return numeric.Zero()
	})
	if err != nil {
		panic(err)
	}
	return g
}
