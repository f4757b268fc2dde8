package core

import (
	"encoding/json"
	"testing"
)

func routingSpec() LinksRoutingSpec {
	return LinksRoutingSpec{
		Loads:         []int64{40, 10, 0},
		AgentLoad:     20,
		Remaining:     2,
		ObservedTotal: 60,
		ObservedCount: 3,
	}
}

func TestLinksRoutingProcedureValidation(t *testing.T) {
	proc := LinksRoutingProcedure{}
	if _, err := proc.Verify([]byte("{bad"), nil, nil); err == nil {
		t.Error("broken spec accepted")
	}
	good := mustJSON(routingSpec())
	if _, err := proc.Verify(good, []byte("{bad"), nil); err == nil {
		t.Error("broken advice accepted")
	}

	rejections := []struct {
		name string
		spec LinksRoutingSpec
	}{
		{"no links", LinksRoutingSpec{AgentLoad: 1, ObservedTotal: 1, ObservedCount: 1}},
		{"zero agent load", LinksRoutingSpec{Loads: []int64{0}, ObservedTotal: 1, ObservedCount: 1}},
		{"observed below own load", LinksRoutingSpec{Loads: []int64{0}, AgentLoad: 5, ObservedTotal: 3, ObservedCount: 1}},
		{"negative remaining", LinksRoutingSpec{Loads: []int64{0}, AgentLoad: 1, ObservedTotal: 1, ObservedCount: 1, Remaining: -1}},
		{"negative link load", LinksRoutingSpec{Loads: []int64{-3}, AgentLoad: 1, ObservedTotal: 1, ObservedCount: 1}},
	}
	for _, r := range rejections {
		t.Run(r.name, func(t *testing.T) {
			verdict, err := proc.Verify(mustJSON(r.spec), mustJSON(LinksRoutingAdviceSpec{}), nil)
			if err != nil {
				t.Fatal(err)
			}
			if verdict.Accepted {
				t.Fatal("inconsistent statistics accepted")
			}
		})
	}

	// Out-of-range advised link.
	verdict, err := proc.Verify(good, mustJSON(LinksRoutingAdviceSpec{Link: 99}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if verdict.Accepted {
		t.Error("out-of-range link accepted")
	}
}

func TestLinksRoutingLastAgentIsGreedy(t *testing.T) {
	// Remaining = 0: the honest advice must coincide with greedy.
	spec := LinksRoutingSpec{
		Loads:         []int64{40, 10, 25},
		AgentLoad:     7,
		Remaining:     0,
		ObservedTotal: 7,
		ObservedCount: 1,
	}
	ann, err := AnnounceLinksRouting("operator", spec)
	if err != nil {
		t.Fatal(err)
	}
	var adv LinksRoutingAdviceSpec
	if err := json.Unmarshal(ann.Advice, &adv); err != nil {
		t.Fatal(err)
	}
	if adv.Link != 1 {
		t.Fatalf("advice = %d, want the least loaded link 1", adv.Link)
	}
}
