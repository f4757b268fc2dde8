package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"

	"rationality/internal/game"
	"rationality/internal/numeric"
)

// FormatCorrelated is the correlated-equilibrium advice format: the inventor
// plays the role of Aumann's correlation device, but — unlike the classical
// trusted device the paper contrasts itself with — the announced
// distribution is VERIFIED by the agents' procedures before anyone obeys a
// recommendation.
const FormatCorrelated = "correlated/v1"

// CorrelatedAdviceSpec is the wire form of a correlated-equilibrium advice:
// the distribution as (profile, probability) pairs; omitted profiles have
// probability zero.
type CorrelatedAdviceSpec struct {
	Entries []CorrelatedEntry `json:"entries"`
}

// CorrelatedEntry is one (profile, probability) pair.
type CorrelatedEntry struct {
	Profile game.Profile `json:"profile"`
	Prob    string       `json:"prob"`
}

// entries keys each probability by its profile's string, the form
// game.NewCorrelatedDistribution takes.
func (s *CorrelatedAdviceSpec) entries() (map[string]*numeric.Rat, error) {
	entries := make(map[string]*numeric.Rat, len(s.Entries))
	for _, e := range s.Entries {
		p, err := numeric.ParseRat(e.Prob)
		if err != nil {
			return nil, fmt.Errorf("core: correlated advice probability: %w", err)
		}
		entries[e.Profile.String()] = p
	}
	return entries, nil
}

// CorrelatedProcedure checks FormatCorrelated advice: game = GameSpec,
// advice = CorrelatedAdviceSpec, proof = empty (the obedience constraints
// are linear; the verifier checks them directly).
type CorrelatedProcedure struct{}

// Format implements Procedure.
func (CorrelatedProcedure) Format() string { return FormatCorrelated }

// Verify implements Procedure.
func (CorrelatedProcedure) Verify(gameSpec, advice, _ json.RawMessage) (*Verdict, error) {
	if v, ok := onWords(func() (*Verdict, bool) { return correlatedWordsVerify(gameSpec, advice) }); ok {
		return v, nil
	}
	g, err := decodeOr(gameSpec, "core: correlated game spec: %w", (*scanner).game, (*GameSpec).ToGame)
	if err != nil {
		return nil, err
	}
	entries, err := decodeOr(advice, "core: correlated advice: %w", (*scanner).correlated, (*CorrelatedAdviceSpec).entries)
	if err != nil {
		return nil, err
	}
	d, err := game.NewCorrelatedDistribution(g, entries)
	if err != nil {
		return &Verdict{Format: FormatCorrelated, Reason: err.Error(), Details: map[string]string{}}, nil
	}
	if !g.IsCorrelatedEquilibrium(d) {
		return valuesVerdict[big.Rat](FormatCorrelated, nil, errDisobeyed), nil
	}
	values := make([]big.Rat, g.NumAgents())
	for i := range values {
		values[i].Set(g.ExpectedPayoffCorrelated(i, d))
	}
	return valuesVerdict(FormatCorrelated, values, nil), nil
}

var errDisobeyed = errors.New("obedience constraints violated: some recommendation invites a profitable deviation")

// AnnounceCorrelated solves the welfare-optimal correlated equilibrium (one
// exact LP — polynomial, unlike Nash) and packages the announcement.
func AnnounceCorrelated(inventorID string, g *game.Game) (Announcement, error) {
	d, err := g.SolveCorrelatedEquilibrium()
	if err != nil {
		return Announcement{}, err
	}
	var entries []CorrelatedEntry
	g.ForEachProfile(func(p game.Profile) bool {
		prob := d.Prob(g, p)
		if prob.Sign() != 0 {
			entries = append(entries, CorrelatedEntry{Profile: p.Clone(), Prob: prob.RatString()})
		}
		return true
	})
	return Announcement{
		InventorID: inventorID,
		Format:     FormatCorrelated,
		Game:       mustJSON(SpecFromGame(g)),
		Advice:     mustJSON(CorrelatedAdviceSpec{Entries: entries}),
	}, nil
}
