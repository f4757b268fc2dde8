// Package core implements the rationality authority itself: the three
// separated parties of the paper's Fig. 1 — the game inventor (possibly
// biased, profits from the game), the agents (participants who must not act
// on unverified advice), and the verifiers (reputation-bearing sellers of
// general-purpose verification procedures v()) — together with the wire
// protocol they speak and the registry of verification procedures covering
// each of the paper's proof formats (§3 enumeration proofs, §4 P1 supports
// and n-agent generalization, §5 participation advice). The inventor and
// the agent's fetch of its announcement live here; the verifier party is
// the server in internal/service, which runs these procedures behind the
// same protocol, and the agent's consultation of a verifier panel is
// internal/quorum.
package core

import (
	"encoding/json"
	"fmt"

	"rationality/internal/bimatrix"
	"rationality/internal/game"
	"rationality/internal/numeric"
	"rationality/internal/participation"
)

// GameSpec is the JSON wire form of a finite strategic-form game: per-agent
// strategy counts plus the dense payoff tensor, rationals as strings.
type GameSpec struct {
	Name           string `json:"name"`
	StrategyCounts []int  `json:"strategyCounts"`
	// Payoffs[i] lists agent i's payoff for every profile in lexicographic
	// profile order.
	Payoffs [][]string `json:"payoffs"`
}

// SpecFromGame serializes a game.
func SpecFromGame(g *game.Game) *GameSpec {
	spec := &GameSpec{
		Name:           g.Name(),
		StrategyCounts: g.StrategyCounts(),
		Payoffs:        make([][]string, g.NumAgents()),
	}
	for i := 0; i < g.NumAgents(); i++ {
		row := make([]string, 0, g.NumProfiles())
		g.ForEachProfile(func(p game.Profile) bool {
			row = append(row, g.Payoff(i, p).RatString())
			return true
		})
		spec.Payoffs[i] = row
	}
	return spec
}

// ToGame reconstructs the game, validating shape and payoff syntax.
func (s *GameSpec) ToGame() (*game.Game, error) {
	g, err := game.New(s.Name, s.StrategyCounts)
	if err != nil {
		return nil, fmt.Errorf("core: game spec: %w", err)
	}
	if len(s.Payoffs) != g.NumAgents() {
		return nil, fmt.Errorf("core: game spec has %d payoff rows for %d agents",
			len(s.Payoffs), g.NumAgents())
	}
	for i, row := range s.Payoffs {
		if len(row) != g.NumProfiles() {
			return nil, fmt.Errorf("core: agent %d has %d payoffs for %d profiles",
				i, len(row), g.NumProfiles())
		}
	}
	idx := 0
	var parseErr error
	g.ForEachProfile(func(p game.Profile) bool {
		for i := range s.Payoffs {
			v, err := numeric.ParseRat(s.Payoffs[i][idx])
			if err != nil {
				parseErr = fmt.Errorf("core: agent %d payoff %d: %w", i, idx, err)
				return false
			}
			g.SetPayoff(i, p, v)
		}
		idx++
		return true
	})
	if parseErr != nil {
		return nil, parseErr
	}
	return g, nil
}

// BimatrixSpec is the wire form of a 2-agent game in matrix form.
type BimatrixSpec struct {
	Name string     `json:"name"`
	A    [][]string `json:"a"`
	B    [][]string `json:"b"`
}

// SpecFromBimatrix serializes a bimatrix game.
func SpecFromBimatrix(name string, g *bimatrix.Game) *BimatrixSpec {
	spec := &BimatrixSpec{Name: name}
	spec.A = matrixToStrings(g.A())
	spec.B = matrixToStrings(g.B())
	return spec
}

// ToBimatrix reconstructs the bimatrix game.
func (s *BimatrixSpec) ToBimatrix() (*bimatrix.Game, error) {
	a, err := stringsToMatrix(s.A)
	if err != nil {
		return nil, fmt.Errorf("core: bimatrix spec A: %w", err)
	}
	b, err := stringsToMatrix(s.B)
	if err != nil {
		return nil, fmt.Errorf("core: bimatrix spec B: %w", err)
	}
	g, err := bimatrix.New(a, b)
	if err != nil {
		return nil, fmt.Errorf("core: bimatrix spec: %w", err)
	}
	return g, nil
}

func matrixToStrings(m *numeric.Matrix) [][]string {
	out := make([][]string, m.Rows())
	for i := 0; i < m.Rows(); i++ {
		row := make([]string, m.Cols())
		for j := 0; j < m.Cols(); j++ {
			row[j] = m.At(i, j).RatString()
		}
		out[i] = row
	}
	return out
}

func stringsToMatrix(rows [][]string) (*numeric.Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("empty matrix")
	}
	m := numeric.NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.Cols() {
			return nil, fmt.Errorf("ragged row %d", i)
		}
		for j, cell := range row {
			v, err := numeric.ParseRat(cell)
			if err != nil {
				return nil, fmt.Errorf("cell (%d, %d): %w", i, j, err)
			}
			m.SetAt(i, j, v)
		}
	}
	return m, nil
}

// ParticipationSpec is the wire form of a §5 Participation game.
type ParticipationSpec struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	K    int    `json:"k"`
	V    string `json:"v"`
	C    string `json:"c"`
}

// SpecFromParticipation serializes a participation game.
func SpecFromParticipation(name string, g *participation.Game) *ParticipationSpec {
	return &ParticipationSpec{
		Name: name,
		N:    g.N(),
		K:    g.K(),
		V:    g.V().RatString(),
		C:    g.C().RatString(),
	}
}

// ToParticipation reconstructs the participation game.
func (s *ParticipationSpec) ToParticipation() (*participation.Game, error) {
	v, err := numeric.ParseRat(s.V)
	if err != nil {
		return nil, fmt.Errorf("core: participation spec v: %w", err)
	}
	c, err := numeric.ParseRat(s.C)
	if err != nil {
		return nil, fmt.Errorf("core: participation spec c: %w", err)
	}
	g, err := participation.New(s.N, s.K, v, c)
	if err != nil {
		return nil, fmt.Errorf("core: participation spec: %w", err)
	}
	return g, nil
}

// VecSpec is the wire form of a rational vector.
type VecSpec []string

// SpecFromVec serializes a vector.
func SpecFromVec(v *numeric.Vec) VecSpec {
	out := make(VecSpec, v.Len())
	for i := 0; i < v.Len(); i++ {
		out[i] = v.At(i).RatString()
	}
	return out
}

// ToVec reconstructs the vector.
func (s VecSpec) ToVec() (*numeric.Vec, error) {
	v := numeric.NewVec(len(s))
	for i, cell := range s {
		x, err := numeric.ParseRat(cell)
		if err != nil {
			return nil, fmt.Errorf("core: vector entry %d: %w", i, err)
		}
		v.SetAt(i, x)
	}
	return v, nil
}

// mustJSON marshals values that cannot fail (all wire types here); it keeps
// call sites honest about the invariant rather than swallowing errors.
func mustJSON(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("core: marshalling wire type %T: %v", v, err))
	}
	return data
}
