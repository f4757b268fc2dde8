package core

import (
	"testing"

	"rationality/internal/numeric"
	"rationality/internal/participation"
)

func paperParticipation() *participation.Game {
	return participation.MustNew(3, 2, numeric.I(8), numeric.I(3))
}

func TestLastMoverProcedureMalformed(t *testing.T) {
	proc := LastMoverProcedure{}
	goodGame := mustJSON(SpecFromParticipation("g", paperParticipation()))

	if _, err := proc.Verify([]byte("{bad"), nil, nil); err == nil {
		t.Error("broken game spec accepted")
	}
	if _, err := proc.Verify(goodGame, []byte("{bad"), nil); err == nil {
		t.Error("broken advice accepted")
	}
	// Short decision table: a verdict-level rejection.
	verdict, err := proc.Verify(goodGame, mustJSON(LastMoverAdviceSpec{Decisions: []bool{true}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if verdict.Accepted {
		t.Error("short decision table accepted")
	}
}
