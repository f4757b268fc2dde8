package rationality_test

import (
	"fmt"
	"log"
	"math/rand"

	"rationality/internal/congestion"
	"rationality/internal/links"
	"rationality/internal/numeric"
)

// Example_routing demonstrates §6's on-line congestion games. It first
// replays the paper's Fig. 6 diamond network, where a greedy best reply at
// arrival time stops being a best reply once later agents arrive; it then
// runs the parallel-links comparison between the greedy strategy and the
// inventor's statistics-based suggestion (a miniature of Fig. 7), and
// verifies Lemma 2's (2 − 1/m)·OPT guarantee on a small instance.
func Example_routing() {
	// Fig. 6: with every edge at congestion k, agent 2k+1 greedily picks
	// a→b→d; after agent 2k+2 is forced onto b→d, the choice costs 2k+3
	// while a→c→d would have cost 2k+2.
	fmt.Println("Fig. 6 diamond network (identity delays, unit loads):")
	for _, k := range []int{1, 5, 20} {
		res, err := congestion.BuildFig6(k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  k=%-3d greedy final delay=%s  forgone alternative=%s\n",
			k, res.GreedyFinalDelay.RatString(), res.AlternativeFinalDelay.RatString())
	}

	// Parallel links: greedy vs the inventor's suggestion on the paper's
	// workload, at both ends and the middle of Fig. 7's axis.
	fmt.Println("\nparallel links, 1000 agents, loads ~ U[1,1000] (mini Fig. 7):")
	cfg := links.Fig7Config{Agents: 1000, MaxLoad: 1000, Iterations: 5, Seed: 42}
	for _, m := range []int{2, 50, 500} {
		pt, err := links.SimulatePoint(m, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  m=%-3d inventor strictly better in %5.1f%% of runs (mean makespan %0.f vs greedy %0.f)\n",
			m, pt.BetterPct, pt.MeanInventor, pt.MeanGreedy)
	}

	// Lemma 2 on a concrete instance: greedy ≤ (2 − 1/m)·OPT.
	rng := rand.New(rand.NewSource(7))
	loads := links.UniformLoads(rng, 12, 100)
	const m = 3
	sys, err := links.Run(m, loads, links.Greedy{})
	if err != nil {
		log.Fatal(err)
	}
	opt, err := links.OptimalMakespan(m, loads)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLemma 2 check on %d loads, m=%d: greedy makespan=%d OPT=%d bound holds=%v\n",
		len(loads), m, sys.Makespan(), opt, links.BoundAgainstOPT(sys.Makespan(), opt, m))

	// A general-network online run with the greedy strategy for flavour.
	net := congestion.MustNetwork(4)
	net.MustAddEdge(0, 1, congestion.Identity())
	net.MustAddEdge(1, 3, congestion.Identity())
	net.MustAddEdge(0, 2, congestion.Identity())
	net.MustAddEdge(2, 3, congestion.Identity())
	arrivals := make([]congestion.Arrival, 6)
	for i := range arrivals {
		arrivals[i] = congestion.Arrival{Source: 0, Sink: 3, Load: numeric.One()}
	}
	res, err := congestion.RunOnline(net, arrivals, congestion.GreedyStrategy{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nonline greedy on the diamond, 6 unit agents: Λ=%s, per-agent final delays:",
		res.Config.TotalCongestion().RatString())
	for i := range arrivals {
		fmt.Printf(" %s", res.FinalDelay[i].RatString())
	}
	fmt.Println()
	// Output:
	// Fig. 6 diamond network (identity delays, unit loads):
	//   k=1   greedy final delay=5  forgone alternative=4
	//   k=5   greedy final delay=13  forgone alternative=12
	//   k=20  greedy final delay=43  forgone alternative=42
	//
	// parallel links, 1000 agents, loads ~ U[1,1000] (mini Fig. 7):
	//   m=2   inventor strictly better in  80.0% of runs (mean makespan 251071 vs greedy 251080)
	//   m=50  inventor strictly better in 100.0% of runs (mean makespan 10361 vs greedy 10499)
	//   m=500 inventor strictly better in 100.0% of runs (mean makespan 1489 vs greedy 1663)
	//
	// Lemma 2 check on 12 loads, m=3: greedy makespan=230 OPT=219 bound holds=true
	//
	// online greedy on the diamond, 6 unit agents: Λ=12, per-agent final delays: 6 6 6 6 6 6
}
