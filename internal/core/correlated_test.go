package core

import (
	"testing"

	"rationality/internal/game"
)

func TestCorrelatedProcedureMalformedInputs(t *testing.T) {
	proc := CorrelatedProcedure{}
	goodGame := mustJSON(SpecFromGame(game.PrisonersDilemma()))

	if _, err := proc.Verify([]byte("{bad"), nil, nil); err == nil {
		t.Error("broken game spec accepted")
	}
	if _, err := proc.Verify(goodGame, []byte("{bad"), nil); err == nil {
		t.Error("broken advice accepted")
	}
	if _, err := proc.Verify(goodGame, mustJSON(CorrelatedAdviceSpec{Entries: []CorrelatedEntry{
		{Profile: game.Profile{0, 0}, Prob: "zebra"},
	}}), nil); err == nil {
		t.Error("unparsable probability accepted")
	}

	// A sub-stochastic distribution is a verdict-level rejection, not an
	// error.
	verdict, err := proc.Verify(goodGame, mustJSON(CorrelatedAdviceSpec{Entries: []CorrelatedEntry{
		{Profile: game.Profile{1, 1}, Prob: "1/2"},
	}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if verdict.Accepted {
		t.Error("sub-stochastic distribution accepted")
	}
}

func TestRegistryIncludesCorrelatedFormat(t *testing.T) {
	r := NewProcedureRegistry()
	if _, err := r.Lookup(FormatCorrelated); err != nil {
		t.Fatalf("correlated format not registered: %v", err)
	}
	if got := len(r.Formats()); got != 7 {
		t.Errorf("formats = %d, want 7", got)
	}
}
