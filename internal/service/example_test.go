package service_test

import (
	"context"
	"fmt"

	"rationality/internal/core"
	"rationality/internal/numeric"
	"rationality/internal/participation"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// Example_consultation runs the full Fig. 1 loop: an inventor announces
// the §5 participation advice, three verification services check it, and
// the agent adopts it only after the weighted majority accepts.
func Example_consultation() {
	g, err := participation.New(3, 2, numeric.I(8), numeric.I(3))
	if err != nil {
		fmt.Println(err)
		return
	}
	ann, err := core.AnnounceParticipation("auction-house", "entry-game", g, participation.LowBranch)
	if err != nil {
		fmt.Println(err)
		return
	}
	inventor, err := core.NewInventorService(ann)
	if err != nil {
		fmt.Println(err)
		return
	}
	verifiers := map[string]transport.Client{}
	for _, id := range []string{"v1", "v2", "v3"} {
		vs, err := service.New(service.Config{ID: id})
		if err != nil {
			fmt.Println(err)
			return
		}
		defer vs.Close()
		verifiers[id] = transport.DialInProc(vs)
	}
	agent, err := core.NewAgent(core.AgentConfig{
		Name:      "jane",
		Inventor:  transport.DialInProc(inventor),
		Verifiers: verifiers,
		Registry:  reputation.NewRegistry(),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := agent.Consult(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("advice accepted by majority: %v\n", res.Accepted)
	fmt.Printf("advised p: %s\n", res.Verdicts["v1"].Details["p"])
	// Output:
	// advice accepted by majority: true
	// advised p: 1/4
}
