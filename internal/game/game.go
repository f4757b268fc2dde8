package game

import (
	"fmt"
	"math/big"

	"rationality/internal/numeric"
)

// Game is a finite strategic-form game ⟨N, A = (Ai), U = (ui)⟩. Payoffs are
// exact rationals stored densely in one table: agent i's utility for the
// profile with mixed-radix index idx is payoffs[i*numProfiles+idx].
type Game struct {
	name string
	shape
	payoffs []big.Rat // payoffs[agent*numProfiles + profileIndex]
}

// shape is what a game is besides its payoffs: the agents' strategy
// counts and the profile space's mixed-radix layout.
type shape struct {
	numStrategies []int // TSi in Fig. 2: numStrategies[i] = |Ai|
	strides       []int // index(p with i→s) = index(p) + (s−p[i])·strides[i]
	numProfiles   int
}

// Words is a game whose payoffs are small exact rationals in machine
// words: what the n-agent and correlated procedures check first, with no
// big.Rat table. Its decoder fills Table right after NewWords; nothing
// changes it afterwards.
type Words struct {
	shape
	payoffs []numeric.Q
}

// New creates a game with the given strategy set sizes (one per agent) and
// all payoffs zero. Every agent must have at least one strategy.
func New(name string, numStrategies []int) (*Game, error) {
	s, err := newShape(numStrategies)
	if err != nil {
		return nil, err
	}
	return &Game{name: name, shape: s, payoffs: make([]big.Rat, len(s.numStrategies)*s.numProfiles)}, nil
}

// NewWords is New for a Words game.
func NewWords(numStrategies []int) (*Words, error) {
	s, err := newShape(numStrategies)
	if err != nil {
		return nil, err
	}
	return &Words{shape: s, payoffs: make([]numeric.Q, len(s.numStrategies)*s.numProfiles)}, nil
}

// Table returns the game's own payoff table, laid out as Game.Table's.
func (w *Words) Table() []numeric.Q { return w.payoffs }

func newShape(numStrategies []int) (shape, error) {
	if len(numStrategies) == 0 {
		return shape{}, fmt.Errorf("game: a game needs at least one agent")
	}
	numProfiles := 1
	for i, k := range numStrategies {
		if k <= 0 {
			return shape{}, fmt.Errorf("game: agent %d has %d strategies; need >= 1", i, k)
		}
		if numProfiles > 1<<28/k {
			return shape{}, fmt.Errorf("game: profile space too large to materialize")
		}
		numProfiles *= k
	}
	sizes := make([]int, len(numStrategies))
	copy(sizes, numStrategies)
	strides := make([]int, len(sizes))
	stride := 1
	for i := len(sizes) - 1; i >= 0; i-- {
		strides[i] = stride
		stride *= sizes[i]
	}
	return shape{numStrategies: sizes, strides: strides, numProfiles: numProfiles}, nil
}

// MustNew is New that panics on error; for tests, examples, and literals.
func MustNew(name string, numStrategies []int) *Game {
	g, err := New(name, numStrategies)
	if err != nil {
		panic(err)
	}
	return g
}

// FromFunc creates a game whose payoffs are produced by u(agent, profile).
// The profile passed to u must not be retained.
func FromFunc(name string, numStrategies []int, u func(agent int, p Profile) *big.Rat) (*Game, error) {
	g, err := New(name, numStrategies)
	if err != nil {
		return nil, err
	}
	g.forEachIndexed(func(idx int, p Profile) bool {
		for i := range g.numStrategies {
			g.u(i, idx).Set(u(i, p))
		}
		return true
	})
	return g, nil
}

// Name returns the game's display name.
func (g *Game) Name() string { return g.name }

// NumAgents returns |N|.
func (g *shape) NumAgents() int { return len(g.numStrategies) }

// NumStrategies returns |Ai| for agent i.
func (g *shape) NumStrategies(i int) int { return g.numStrategies[i] }

// StrategyCounts returns a copy of the per-agent strategy set sizes (the
// paper's TSi).
func (g *shape) StrategyCounts() []int {
	c := make([]int, len(g.numStrategies))
	copy(c, g.numStrategies)
	return c
}

// NumProfiles returns |A| = ∏|Ai|.
func (g *shape) NumProfiles() int { return g.numProfiles }

// ValidProfile reports whether p selects an in-range strategy for every
// agent. It is the paper's isStrat(n, TSi, Si) predicate.
func (g *shape) ValidProfile(p Profile) bool {
	if len(p) != len(g.numStrategies) {
		return false
	}
	for i, s := range p {
		if s < 0 || s >= g.numStrategies[i] {
			return false
		}
	}
	return true
}

// index converts a profile to its dense payoff index (mixed radix).
func (g *shape) index(p Profile) int {
	idx := 0
	for i, s := range p {
		idx = idx*g.numStrategies[i] + s
	}
	return idx
}

// Index returns profile p's position in ForEachProfile's order, and false
// for a profile that selects no valid strategy for some agent.
func (g *shape) Index(p Profile) (int, bool) {
	if !g.ValidProfile(p) {
		return 0, false
	}
	return g.index(p), true
}

// checkedIndex is index for a profile the caller has not validated; it
// panics on an invalid one, as Payoff does.
func (g *shape) checkedIndex(p Profile) int {
	if !g.ValidProfile(p) {
		panic(fmt.Sprintf("game: invalid profile %v", p))
	}
	return g.index(p)
}

// u borrows agent i's payoff at profile index idx: procedures read it in
// place and must not modify or retain it.
func (g *Game) u(i, idx int) *big.Rat { return &g.payoffs[i*g.numProfiles+idx] }

// Table returns the game's own payoff table, agent-major: agent i's
// payoff at the k-th profile of ForEachProfile's order is
// Table()[i*NumProfiles()+k]. It is for a decoder filling a game New just
// made; everyone else reads and writes through Payoff and SetPayoff.
func (g *Game) Table() []big.Rat { return g.payoffs }

// Payoff returns agent i's utility ui(p) as a fresh rational. It panics on an
// invalid profile, mirroring that u is only defined on A.
func (g *Game) Payoff(i int, p Profile) *big.Rat {
	if i < 0 || i >= g.NumAgents() {
		panic(fmt.Sprintf("game: agent %d out of range", i))
	}
	return numeric.Copy(g.u(i, g.checkedIndex(p)))
}

// SetPayoff sets agent i's utility for profile p.
func (g *Game) SetPayoff(i int, p Profile, v *big.Rat) {
	if i < 0 || i >= g.NumAgents() {
		panic(fmt.Sprintf("game: agent %d out of range", i))
	}
	g.u(i, g.checkedIndex(p)).Set(v)
}

// SetPayoffs sets every agent's utility for profile p at once.
func (g *Game) SetPayoffs(p Profile, vs ...*big.Rat) {
	if len(vs) != g.NumAgents() {
		panic(fmt.Sprintf("game: %d payoffs for %d agents", len(vs), g.NumAgents()))
	}
	for i, v := range vs {
		g.SetPayoff(i, p, v)
	}
}

// ForEachProfile calls fn for every profile in lexicographic order until fn
// returns false. The profile passed to fn is reused across calls and must not
// be modified; clone it to retain it.
func (g *shape) ForEachProfile(fn func(p Profile) bool) {
	g.forEachIndexed(func(_ int, p Profile) bool { return fn(p) })
}

// forEachIndexed is ForEachProfile with each profile's payoff index: an
// odometer over one profile, the last agent's strategy turning fastest.
func (g *shape) forEachIndexed(fn func(idx int, p Profile) bool) {
	p := make(Profile, len(g.numStrategies))
	for idx := 0; idx < g.numProfiles; idx++ {
		if !fn(idx, p) {
			return
		}
		for i := len(p) - 1; i >= 0; i-- {
			if p[i]++; p[i] < g.numStrategies[i] {
				break
			}
			p[i] = 0
		}
	}
}
