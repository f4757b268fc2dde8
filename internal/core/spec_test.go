package core

import (
	"math/big"
	"testing"

	"rationality/internal/bimatrix"
	"rationality/internal/game"
	"rationality/internal/numeric"
	"rationality/internal/participation"
)

func TestGameSpecRoundTrip(t *testing.T) {
	g := battleOfSexes()
	spec := SpecFromGame(g)
	back, err := spec.ToGame()
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != g.Name() || back.NumAgents() != g.NumAgents() {
		t.Error("metadata lost")
	}
	g.ForEachProfile(func(p game.Profile) bool {
		for i := 0; i < g.NumAgents(); i++ {
			if !numeric.Eq(back.Payoff(i, p), g.Payoff(i, p)) {
				t.Fatalf("payoff mismatch at %v agent %d", p, i)
			}
		}
		return true
	})
}

func TestGameSpecValidation(t *testing.T) {
	bad := &GameSpec{Name: "x", StrategyCounts: []int{2, 2}, Payoffs: [][]string{{"1"}}}
	if _, err := bad.ToGame(); err == nil {
		t.Error("wrong payoff row count accepted")
	}
	bad2 := &GameSpec{Name: "x", StrategyCounts: []int{2}, Payoffs: [][]string{{"1", "zebra"}}}
	if _, err := bad2.ToGame(); err == nil {
		t.Error("unparsable payoff accepted")
	}
	bad3 := &GameSpec{Name: "x", StrategyCounts: nil, Payoffs: nil}
	if _, err := bad3.ToGame(); err == nil {
		t.Error("empty game accepted")
	}
	short := &GameSpec{Name: "x", StrategyCounts: []int{2}, Payoffs: [][]string{{"1"}}}
	if _, err := short.ToGame(); err == nil {
		t.Error("short payoff row accepted")
	}
}

func TestBimatrixSpecRoundTrip(t *testing.T) {
	g := bimatrix.FromInts(
		[][]int64{{1, -1}, {-1, 1}},
		[][]int64{{-1, 1}, {1, -1}},
	)
	spec := SpecFromBimatrix("mp", g)
	back, err := spec.ToBimatrix()
	if err != nil {
		t.Fatal(err)
	}
	if back.A().String() != g.A().String() || back.B().String() != g.B().String() {
		t.Error("matrices lost in round trip")
	}
}

func TestBimatrixSpecValidation(t *testing.T) {
	if _, err := (&BimatrixSpec{}).ToBimatrix(); err == nil {
		t.Error("empty spec accepted")
	}
	bad := &BimatrixSpec{A: [][]string{{"1", "2"}, {"3"}}, B: [][]string{{"1", "2"}, {"3", "4"}}}
	if _, err := bad.ToBimatrix(); err == nil {
		t.Error("ragged matrix accepted")
	}
	bad2 := &BimatrixSpec{A: [][]string{{"frog"}}, B: [][]string{{"1"}}}
	if _, err := bad2.ToBimatrix(); err == nil {
		t.Error("unparsable cell accepted")
	}
}

func TestParticipationSpecRoundTrip(t *testing.T) {
	g := participation.MustNew(3, 2, numeric.I(8), numeric.I(3))
	spec := SpecFromParticipation("auction", g)
	back, err := spec.ToParticipation()
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 3 || back.K() != 2 || back.V().RatString() != "8" || back.C().RatString() != "3" {
		t.Error("participation spec round trip lost fields")
	}
}

func TestParticipationSpecValidation(t *testing.T) {
	bad := &ParticipationSpec{N: 3, K: 2, V: "x", C: "1"}
	if _, err := bad.ToParticipation(); err == nil {
		t.Error("unparsable v accepted")
	}
	bad2 := &ParticipationSpec{N: 1, K: 2, V: "8", C: "3"}
	if _, err := bad2.ToParticipation(); err == nil {
		t.Error("invalid game parameters accepted")
	}
}

func TestVecSpecRoundTrip(t *testing.T) {
	v := numeric.VecOf(numeric.R(1, 4), numeric.R(3, 4))
	back, err := SpecFromVec(v).ToVec()
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != v.String() {
		t.Error("vector round trip failed")
	}
	if _, err := (VecSpec{"bad"}).ToVec(); err == nil {
		t.Error("unparsable entry accepted")
	}
}

// battleOfSexes has two ≤u-incomparable pure equilibria, [0 0] and [1 1].
func battleOfSexes() *game.Game {
	return game.NewBimatrix("battle-of-the-sexes",
		[][]int64{{2, 0}, {0, 1}},
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
