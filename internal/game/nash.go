package game

// LeU reports whether profile p ≤u q: every agent weakly prefers q, i.e.
// ∀i: ui(p) <= ui(q). It is the paper's leStrat(n, u, Si1, Si2) predicate
// (Fig. 2 line 20).
func (g *Game) LeU(p, q Profile) bool {
	pi, qi := g.checkedIndex(p), g.checkedIndex(q)
	for i := 0; i < g.NumAgents(); i++ {
		if g.u(i, pi).Cmp(g.u(i, qi)) > 0 {
			return false
		}
	}
	return true
}

// Incomparable reports whether p and q are incomparable under ≤u: some agent
// strictly prefers p and some agent strictly prefers q. It is the paper's
// noComp predicate (Fig. 2 line 18: ∃i, j: ui(Si1) < ui(Si2) ∧ uj(Si2) < uj(Si1)).
func (g *Game) Incomparable(p, q Profile) bool {
	someonePrefersQ := false
	someonePrefersP := false
	pi, qi := g.checkedIndex(p), g.checkedIndex(q)
	for i := 0; i < g.NumAgents(); i++ {
		switch g.u(i, pi).Cmp(g.u(i, qi)) {
		case -1:
			someonePrefersQ = true
		case 1:
			someonePrefersP = true
		}
	}
	return someonePrefersQ && someonePrefersP
}

// Deviation is a profitable unilateral deviation from a profile: agent Agent
// strictly improves by switching to Strategy.
type Deviation struct {
	Agent    int
	Strategy int
}

// FindDeviation searches for a profitable unilateral deviation from p. It
// returns the first one in (agent, strategy) order, or ok=false when p is a
// pure Nash equilibrium. The returned deviation doubles as the
// counterexample witness used by the §3 proof scheme.
func (g *Game) FindDeviation(p Profile) (dev Deviation, ok bool) {
	if !g.ValidProfile(p) {
		panic("game: FindDeviation on invalid profile")
	}
	idx := g.index(p)
	for i := 0; i < g.NumAgents(); i++ {
		base := g.u(i, idx)
		for si := 0; si < g.NumStrategies(i); si++ {
			if si == p[i] {
				continue
			}
			if g.u(i, idx+(si-p[i])*g.strides[i]).Cmp(base) > 0 {
				return Deviation{Agent: i, Strategy: si}, true
			}
		}
	}
	return Deviation{}, false
}

// IsNash reports whether p is a pure Nash equilibrium: isStrat(p) and no
// agent can strictly gain by a unilateral deviation (Fig. 2 line 22-24).
func (g *Game) IsNash(p Profile) bool {
	if !g.ValidProfile(p) {
		return false
	}
	_, deviates := g.FindDeviation(p)
	return !deviates
}

// AllNash returns every pure Nash equilibrium of the game in lexicographic
// order. This is the enumeration the §3 proof scheme certifies (allNash).
func (g *Game) AllNash() []Profile {
	var out []Profile
	g.ForEachProfile(func(p Profile) bool {
		if g.IsNash(p) {
			out = append(out, p.Clone())
		}
		return true
	})
	return out
}

// IsMaxNash reports whether p is a maximal pure Nash equilibrium: p is an
// equilibrium and no other equilibrium q has q ≥u p with q ≠ p (Fig. 2
// line 26, NashMax line 36: every equilibrium is ≤u p or incomparable).
func (g *Game) IsMaxNash(p Profile) bool {
	if !g.IsNash(p) {
		return false
	}
	dominated := false
	g.ForEachProfile(func(q Profile) bool {
		if !g.IsNash(q) || q.Equal(p) {
			return true
		}
		// q dominates p iff p ≤u q and they are not payoff-identical.
		if g.LeU(p, q) && !g.LeU(q, p) {
			dominated = true
			return false
		}
		return true
	})
	return !dominated
}

// IsMinNash reports whether p is a minimal pure Nash equilibrium (footnote 1
// of the paper: no equilibrium q has q ≤u p with strictly less for someone).
func (g *Game) IsMinNash(p Profile) bool {
	if !g.IsNash(p) {
		return false
	}
	dominated := false
	g.ForEachProfile(func(q Profile) bool {
		if !g.IsNash(q) || q.Equal(p) {
			return true
		}
		if g.LeU(q, p) && !g.LeU(p, q) {
			dominated = true
			return false
		}
		return true
	})
	return !dominated
}
