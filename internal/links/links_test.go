package links

import (
	"math/rand"
	"testing"
)

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(0); err == nil {
		t.Error("zero links accepted")
	}
	s := MustSystem(3)
	if s.M() != 3 || s.Makespan() != 0 {
		t.Errorf("fresh system: M=%d makespan=%d", s.M(), s.Makespan())
	}
}

func TestAssignAndMakespan(t *testing.T) {
	s := MustSystem(2)
	if err := s.Assign(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(1, 3); err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 5 {
		t.Errorf("makespan = %d", s.Makespan())
	}
	if err := s.Assign(7, 1); err == nil {
		t.Error("out-of-range link accepted")
	}
	if err := s.Assign(0, -1); err == nil {
		t.Error("negative load accepted")
	}
	loads := s.Loads()
	loads[0] = 999
	if s.Loads()[0] != 5 {
		t.Error("Loads leaked internal state")
	}
}

func TestLeastLoadedTieBreak(t *testing.T) {
	s := MustSystem(3)
	if s.LeastLoaded() != 0 {
		t.Error("empty system should pick link 0")
	}
	s.Assign(0, 2)
	s.Assign(1, 1)
	s.Assign(2, 1)
	if got := s.LeastLoaded(); got != 1 {
		t.Errorf("LeastLoaded = %d, want 1 (lowest index among ties)", got)
	}
}

func TestGreedyRun(t *testing.T) {
	// Loads 3, 3, 2 on 2 links: greedy → L0=3, L1=3, then 2 → L0: makespan 5.
	s, err := Run(2, []int64{3, 3, 2}, Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 5 {
		t.Errorf("makespan = %d, want 5", s.Makespan())
	}
	if _, err := Run(2, []int64{1, -4}, Greedy{}); err == nil {
		t.Error("negative load accepted")
	}
}

func TestInventorFallsBackWhenLastAgent(t *testing.T) {
	s := MustSystem(2)
	s.Assign(0, 10)
	link := (Inventor{}).Choose(s, 5, 0, 15, 2)
	if link != 1 {
		t.Errorf("last agent should go greedy to link 1, got %d", link)
	}
}

func TestInventorAnticipatesFutureLoads(t *testing.T) {
	// Two links, current loads (0, 0). Agent of load 2 arrives; 2 more
	// agents of average 10 expected. LPT places the two 10s on separate
	// links, then... order: averages (10 > 2) first: 10→L0, 10→L1, 2→L0.
	// Wait — LPT with current loads zero: 10→L0, 10→L1, then 2→L0 (tie → lowest).
	// So inventor sends the agent to link 0, same as greedy here. Make it
	// interesting: current loads (4, 0). Greedy: link 1. Inventor: place
	// 10→L1 (load 0), 10→L0 (load 4→14 vs 10: least is 10 at L1? After
	// first: L0=4, L1=10 → 10→L0 (4<10) → L0=14. Then 2→L1 (10<14) → link 1.
	s := MustSystem(2)
	s.Assign(0, 4)
	link := (Inventor{}).Choose(s, 2, 2, 22, 2) // observedTotal arbitrary: avg 11
	// With avg 11: 11→L1 (0), 11→L0 (4) → L0=15, L1=11; then 2→L1.
	if link != 1 {
		t.Errorf("inventor chose %d, want 1", link)
	}
}

func TestInventorOwnLoadFirstWhenLarger(t *testing.T) {
	// Own load 20 exceeds the average 5: LPT places it first on the least
	// loaded link.
	s := MustSystem(2)
	s.Assign(0, 1)
	link := (Inventor{}).Choose(s, 20, 3, 25, 5) // avg = 5
	if link != 1 {
		t.Errorf("inventor chose %d, want 1 (least loaded for the big job)", link)
	}
}

func TestUniformLoadsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	loads := UniformLoads(rng, 1000, 1000)
	if len(loads) != 1000 {
		t.Fatalf("len = %d", len(loads))
	}
	for _, w := range loads {
		if w < 1 || w > 1000 {
			t.Fatalf("load %d outside [1, 1000]", w)
		}
	}
}

func TestLPTMakespan(t *testing.T) {
	// Classic: loads {5,5,4,4,3,3} on 2 links: LPT gives 12 (optimal).
	if got := LPTMakespan(2, []int64{5, 5, 4, 4, 3, 3}); got != 12 {
		t.Errorf("LPT makespan = %d, want 12", got)
	}
}

func TestOptimalMakespanSmall(t *testing.T) {
	cases := []struct {
		m     int
		loads []int64
		want  int64
	}{
		{2, []int64{3, 3, 2, 2}, 5},
		{2, []int64{5, 4, 3, 3, 3}, 9},
		{3, []int64{7, 6, 5, 4, 3, 2}, 9},
		{2, []int64{10}, 10},
		{4, []int64{1, 1, 1, 1}, 1},
		{2, nil, 0},
	}
	for i, c := range cases {
		got, err := OptimalMakespan(c.m, c.loads)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.want {
			t.Errorf("case %d: OPT = %d, want %d", i, got, c.want)
		}
	}
	if _, err := OptimalMakespan(0, []int64{1}); err == nil {
		t.Error("zero links accepted")
	}
	if _, err := OptimalMakespan(2, make([]int64, 25)); err == nil {
		t.Error("oversized instance accepted")
	}
	if _, err := OptimalMakespan(2, []int64{-1}); err == nil {
		t.Error("negative load accepted")
	}
}

// Lemma 2, literal form: greedy makespan <= (2 − 1/m)·OPT on random small
// instances where OPT is computable exactly.
func TestLemma2AgainstExactOPT(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(3)
		n := 1 + rng.Intn(11)
		loads := UniformLoads(rng, n, 50)
		s, err := Run(m, loads, Greedy{})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := OptimalMakespan(m, loads)
		if err != nil {
			t.Fatal(err)
		}
		if !BoundAgainstOPT(s.Makespan(), opt, m) {
			t.Fatalf("trial %d: greedy %d > (2-1/%d)·OPT (%d)", trial, s.Makespan(), m, opt)
		}
		if !GreedyBoundHolds(s, loads) {
			t.Fatalf("trial %d: intermediate Lemma 2 inequality violated", trial)
		}
	}
}

// Lemma 2's intermediate inequality must hold on large instances too.
func TestLemma2IntermediateLargeInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		m := 2 + rng.Intn(99)
		loads := UniformLoads(rng, 1000, 1000)
		s, err := Run(m, loads, Greedy{})
		if err != nil {
			t.Fatal(err)
		}
		if !GreedyBoundHolds(s, loads) {
			t.Fatalf("trial %d (m=%d): Lemma 2 inequality violated", trial, m)
		}
	}
}

// The inventor's strategy must also respect conservation: total assigned
// load equals the sum of the input loads.
func TestConservationOfLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	loads := UniformLoads(rng, 500, 1000)
	var want int64
	for _, w := range loads {
		want += w
	}
	for _, c := range []Chooser{Greedy{}, Inventor{}} {
		s, err := Run(37, loads, c)
		if err != nil {
			t.Fatal(err)
		}
		var got int64
		for _, l := range s.Loads() {
			got += l
		}
		if got != want {
			t.Fatalf("%T: assigned %d, want %d", c, got, want)
		}
	}
}

func TestSimulatePointShape(t *testing.T) {
	cfg := Fig7Config{Agents: 200, MaxLoad: 1000, Iterations: 30, Seed: 7}
	small, err := SimulatePoint(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	large, err := SimulatePoint(60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's curve: for sufficiently many links the inventor wins in
	// the vast majority of iterations.
	if large.BetterPct < 60 {
		t.Errorf("m=60: inventor wins only %.1f%%", large.BetterPct)
	}
	// And the win rate grows with m.
	if large.BetterPct <= small.BetterPct {
		t.Errorf("win rate should grow with m: m=2 %.1f%% vs m=60 %.1f%%",
			small.BetterPct, large.BetterPct)
	}
	// Sanity on the aggregates.
	if small.MeanGreedy <= 0 || small.MeanInventor <= 0 {
		t.Error("mean makespans should be positive")
	}
	if small.BetterPct+small.TiePct > 100+1e-9 {
		t.Error("percentages exceed 100")
	}
}

func TestSimulatePointValidation(t *testing.T) {
	if _, err := SimulatePoint(0, Fig7Config{Agents: 1000, MaxLoad: 1000, Iterations: 100, Seed: 1}); err == nil {
		t.Error("zero links accepted")
	}
	if _, err := SimulatePoint(2, Fig7Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestSimulateSeriesAndPaperCounts(t *testing.T) {
	cfg := Fig7Config{Agents: 100, MaxLoad: 100, Iterations: 5, Seed: 9}
	for _, m := range []int{2, 10, 20} {
		p, err := SimulatePoint(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p.Links != m {
			t.Fatalf("point for m=%d = %+v", m, p)
		}
	}
	ms := PaperLinkCounts(1)
	if len(ms) != 499 || ms[0] != 2 || ms[len(ms)-1] != 500 {
		t.Errorf("full axis: len=%d first=%d last=%d", len(ms), ms[0], ms[len(ms)-1])
	}
	coarse := PaperLinkCounts(50)
	if len(coarse) != 10 || coarse[0] != 2 {
		t.Errorf("coarse axis = %v", coarse)
	}
	if got := PaperLinkCounts(0); len(got) != 499 {
		t.Errorf("stride 0 should clamp to 1")
	}
}
