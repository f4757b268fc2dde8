package links

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestIsNashAssignmentBasics(t *testing.T) {
	// Loads 3, 2, 2 on 2 links: assignment (L0: 3), (L1: 2, 2) has link
	// loads 3 and 4; the jobs on L1 cannot improve (3+2=5 > 4), nor can the
	// job on L0 (4+3=7 > 3): Nash.
	ok, err := IsNashAssignment(2, []int64{3, 2, 2}, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("balanced assignment should be Nash")
	}
	// All three on one link: job 0 moves to the empty link (0+3 < 7).
	ok, err = IsNashAssignment(2, []int64{3, 2, 2}, []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("pile-up should not be Nash")
	}
}

func TestIsNashAssignmentValidation(t *testing.T) {
	if _, err := IsNashAssignment(2, []int64{1, 2}, []int{0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := IsNashAssignment(2, []int64{1}, []int{5}); err == nil {
		t.Error("out-of-range link accepted")
	}
	if _, err := IsNashAssignment(2, []int64{-1}, []int{0}); err == nil {
		t.Error("negative load accepted")
	}
}

// The §6 observation in scheduling form: greedy's online best replies need
// not form an offline Nash equilibrium.
func TestGreedyAssignmentNotAlwaysNash(t *testing.T) {
	// Loads 2, 2, 3 on 2 links: greedy gives L0 = {2, 3} = 5, L1 = {2}.
	// The first job (load 2 on L0) improves by moving to L1 (2+2=4 < 5).
	loads := []int64{2, 2, 3}
	_, assignment, err := runDetailed(2, loads, Greedy{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := IsNashAssignment(2, loads, assignment)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("assignment %v should not be Nash", assignment)
	}
}

// LPT assignments are always pure Nash equilibria (a classical result).
func TestLPTAssignmentIsNashProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 150; trial++ {
		m := 2 + rng.Intn(4)
		n := 1 + rng.Intn(20)
		loads := UniformLoads(rng, n, 100)
		sys, assignment, err := lptAssignment(m, loads)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := IsNashAssignment(m, loads, assignment)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: LPT assignment not Nash (loads %v, assignment %v)", trial, loads, assignment)
		}
		// Consistency: lptAssignment's makespan equals LPTMakespan's.
		if sys.Makespan() != LPTMakespan(m, loads) {
			t.Fatalf("trial %d: lptAssignment makespan %d != LPTMakespan %d",
				trial, sys.Makespan(), LPTMakespan(m, loads))
		}
	}
}

// runDetailed must agree with Run on the final loads for any chooser.
func TestRunDetailedConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	loads := UniformLoads(rng, 200, 1000)
	for _, c := range []Chooser{Greedy{}, Inventor{}, NewUniformPrior(1000)} {
		plain, err := Run(13, loads, c)
		if err != nil {
			t.Fatal(err)
		}
		detailed, assignment, err := runDetailed(13, loads, c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain.Loads() {
			if plain.Loads()[i] != detailed.Loads()[i] {
				t.Fatalf("%T: Run and runDetailed diverge at link %d", c, i)
			}
		}
		// The assignment must reproduce the loads.
		rebuilt := make([]int64, 13)
		for i, link := range assignment {
			rebuilt[link] += loads[i]
		}
		for i, l := range detailed.Loads() {
			if rebuilt[i] != l {
				t.Fatalf("%T: assignment does not reproduce link %d's load", c, i)
			}
		}
	}
	if _, _, err := runDetailed(2, []int64{-1}, Greedy{}); err == nil {
		t.Error("negative load accepted")
	}
}

// How often is each strategy's final assignment a Nash equilibrium in
// hindsight? LPT always; greedy and the inventor only sometimes — the
// instability §6 turns into a case for consulting the authority.
func TestHindsightStabilityRates(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	const iters = 60
	nash := map[string]int{}
	for it := 0; it < iters; it++ {
		loads := UniformLoads(rng, 40, 100)
		const m = 4
		for name, c := range map[string]Chooser{"greedy": Greedy{}, "inventor": Inventor{}} {
			_, assignment, err := runDetailed(m, loads, c)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := IsNashAssignment(m, loads, assignment)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				nash[name]++
			}
		}
		_, lptAssign, err := lptAssignment(4, loads)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := IsNashAssignment(4, loads, lptAssign)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			nash["lpt"]++
		}
	}
	if nash["lpt"] != iters {
		t.Errorf("LPT Nash rate %d/%d, want all", nash["lpt"], iters)
	}
	if nash["greedy"] == iters {
		t.Error("greedy should not always be Nash in hindsight")
	}
}

// runDetailed plays the arrival sequence like Run but also returns the
// per-agent link assignment.
func runDetailed(m int, loads []int64, c Chooser) (*System, []int, error) {
	s, err := NewSystem(m)
	if err != nil {
		return nil, nil, err
	}
	assignment := make([]int, len(loads))
	var observedTotal int64
	for i, w := range loads {
		if w < 0 {
			return nil, nil, fmt.Errorf("links: negative load at position %d", i)
		}
		observedTotal += w
		link := c.Choose(s, w, len(loads)-i-1, observedTotal, i+1)
		if err := s.Assign(link, w); err != nil {
			return nil, nil, err
		}
		assignment[i] = link
	}
	return s, assignment, nil
}

// lptAssignment computes the offline LPT assignment (longest load first,
// each onto the least-loaded link) and returns it in the original job
// order, so it can be checked against the same loads slice.
func lptAssignment(m int, loads []int64) (*System, []int, error) {
	s, err := NewSystem(m)
	if err != nil {
		return nil, nil, err
	}
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	// Descending load; ties by original order for determinism.
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })
	assignment := make([]int, len(loads))
	for _, idx := range order {
		link := s.LeastLoaded()
		if err := s.Assign(link, loads[idx]); err != nil {
			return nil, nil, err
		}
		assignment[idx] = link
	}
	return s, assignment, nil
}
