package core

import (
	"encoding/json"
	"fmt"

	"rationality/internal/participation"
)

// FormatLastMover is §5's online-participation advice. Instead of answering
// one query (which would reveal to the inventor when the agent is moving),
// the inventor publishes the FULL decision table — for every possible count
// of prior participants, the advised decision — and the verifier checks
// every entry is a best reply. The agent then looks up its privately
// observed count locally: the verification method reveals the count to
// nobody, refining the paper's note that the naive per-query method "reveals
// the number of firms that have already played".
const FormatLastMover = "participation-online/v1"

// LastMoverAdviceSpec is the wire form: Decisions[count] is true to
// participate when `count` firms already entered; the table must have
// exactly n entries (counts 0..n−1).
type LastMoverAdviceSpec struct {
	Decisions []bool `json:"decisions"`
}

// LastMoverProcedure checks FormatLastMover advice: game =
// ParticipationSpec, advice = LastMoverAdviceSpec, proof = empty.
type LastMoverProcedure struct{}

// Format implements Procedure.
func (LastMoverProcedure) Format() string { return FormatLastMover }

// Verify implements Procedure.
func (LastMoverProcedure) Verify(gameSpec, advice, _ json.RawMessage) (*Verdict, error) {
	g, err := decodeOr(gameSpec, "core: last-mover game spec: %w", (*scanner).participation, (*ParticipationSpec).ToParticipation)
	if err != nil {
		return nil, err
	}
	advSpec, err := decodeOr(advice, "core: last-mover advice: %w", (*scanner).lastMoverAdvice, itself[LastMoverAdviceSpec])
	if err != nil {
		return nil, err
	}

	verdict := &Verdict{Format: FormatLastMover, Details: map[string]string{}}
	if len(advSpec.Decisions) != g.N() {
		verdict.Reason = fmt.Sprintf("decision table has %d entries; need one per count 0..%d",
			len(advSpec.Decisions), g.N()-1)
		return verdict, nil
	}
	for count, participate := range advSpec.Decisions {
		d := participation.Abstain
		if participate {
			d = participation.Participate
		}
		gain, err := g.VerifyLastMoverAdvice(count, d)
		if err != nil {
			verdict.Reason = err.Error()
			return verdict, nil
		}
		verdict.Details[fmt.Sprintf("gain[count=%d]", count)] = gain.RatString()
	}
	verdict.Accepted = true
	return verdict, nil
}

// AnnounceLastMover computes the honest decision table for the game.
func AnnounceLastMover(inventorID, name string, g *participation.Game) (Announcement, error) {
	decisions := make([]bool, g.N())
	for count := 0; count < g.N(); count++ {
		d, _, err := g.LastMoverAdvice(count)
		if err != nil {
			return Announcement{}, err
		}
		decisions[count] = d == participation.Participate
	}
	return Announcement{
		InventorID: inventorID,
		Format:     FormatLastMover,
		Game:       mustJSON(SpecFromParticipation(name, g)),
		Advice:     mustJSON(LastMoverAdviceSpec{Decisions: decisions}),
	}, nil
}

// AnnounceLastMoverFlipped is the paper's "false advice": every decision
// inverted. The verifiers must reject it (a flip causes a loss).
func AnnounceLastMoverFlipped(inventorID, name string, g *participation.Game) (Announcement, error) {
	ann, err := AnnounceLastMover(inventorID, name, g)
	if err != nil {
		return Announcement{}, err
	}
	var spec LastMoverAdviceSpec
	if err := json.Unmarshal(ann.Advice, &spec); err != nil {
		return Announcement{}, err
	}
	for i := range spec.Decisions {
		spec.Decisions[i] = !spec.Decisions[i]
	}
	ann.Advice = mustJSON(spec)
	return ann, nil
}
