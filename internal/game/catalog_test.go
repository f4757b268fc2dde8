package game

import (
	"math/big"

	"rationality/internal/numeric"
)

// Test fixtures: the classic games and mixed-profile helpers this
// package's tests share.

// matchingPennies has no pure Nash equilibrium (its unique equilibrium is
// mixed at (1/2, 1/2)).
func matchingPennies() *Game {
	return NewBimatrix("matching-pennies",
		[][]int64{{1, -1}, {-1, 1}},
		[][]int64{{-1, 1}, {1, -1}},
	)
}

// battleOfSexes has two pure equilibria, [0 0] and [1 1], which are
// ≤u-incomparable.
func battleOfSexes() *Game {
	return NewBimatrix("battle-of-the-sexes",
		[][]int64{{2, 0}, {0, 1}},
		[][]int64{{1, 0}, {0, 2}},
	)
}

// coordination has two equilibria where [1 1] strictly ≥u-dominates
// [0 0]; only [1 1] is a maximal equilibrium.
func coordination() *Game {
	return NewBimatrix("coordination",
		[][]int64{{1, 0}, {0, 2}},
		[][]int64{{1, 0}, {0, 2}},
	)
}

// fig5Game is the bimatrix game of the paper's Fig. 5:
//
//	     C     D
//	A  1,1   1,1
//	B  0,1   2,0
func fig5Game() *Game {
	return NewBimatrix("fig5",
		[][]int64{{1, 1}, {0, 2}},
		[][]int64{{1, 1}, {1, 0}},
	)
}

// threeAgentMajority is a 3-agent, 2-strategy majority coordination game:
// each agent gains 1 when it sides with the majority, else 0. Both
// unanimous profiles are equilibria.
func threeAgentMajority() *Game {
	g, err := FromFunc("majority-3", []int{2, 2, 2}, func(i int, p Profile) *big.Rat {
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

// allProfiles returns every profile of g in ForEachProfile's order.
func allProfiles(g *Game) []Profile {
	var out []Profile
	g.ForEachProfile(func(p Profile) bool {
		out = append(out, p.Clone())
		return true
	})
	return out
}

// pureAsMixed lifts a pure profile to the equivalent degenerate mixed
// profile.
func pureAsMixed(g *Game, p Profile) MixedProfile {
	mp := make(MixedProfile, g.NumAgents())
	for i := range mp {
		mp[i] = numeric.NewVec(g.NumStrategies(i))
		mp[i].SetAt(p[i], numeric.One())
	}
	return mp
}

// isMixedNash reports whether no agent strictly gains by deviating to any
// pure strategy from mp (by linearity of expectation, that covers all
// mixed deviations too).
func isMixedNash(g *Game, mp MixedProfile) bool {
	if !g.ValidMixed(mp) {
		return false
	}
	for i := 0; i < g.NumAgents(); i++ {
		base := expectedPayoff(g, i, mp)
		for si := 0; si < g.NumStrategies(i); si++ {
			if numeric.Gt(expectedPayoffPureDeviation(g, i, si, mp), base) {
				return false
			}
		}
	}
	return true
}
