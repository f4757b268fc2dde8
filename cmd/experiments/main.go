// Command experiments regenerates every table and figure of the paper's
// evaluation. The experiment index E1–E12 is the experiments table below
// (`experiments -run list` prints it):
//
//	experiments -run all           # everything (fig7 uses the coarse axis)
//	experiments -run fig7          # E1: the Fig. 7 sweep
//	experiments -run fig7 -stride 1 -iters 1000   # the paper's full axis
//	experiments -run participation # E2: §5 offline worked example
//	experiments -run online-participation          # E3: §5 online numbers
//	experiments -run p1-scaling    # E4: Lemma 1 verifier scaling
//	experiments -run p2-queries    # E5: Remark 3 query counts
//	experiments -run fig6          # E6: the diamond-network example
//	experiments -run coq-proof     # E7: §3 enumeration proof blow-up
//	experiments -run lemma2        # E8: greedy vs exact OPT bound
//	experiments -run fig5          # E9: Fig. 5 / Remark 2 ambiguity
//	experiments -run federation    # E12: gossip vs all-pairs (BENCH_federation.json)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

type experiment struct {
	name string
	desc string
	run  func(cfg runConfig) error
}

type runConfig struct {
	stride int
	iters  int
	agents int
	seed   int64
	out    io.Writer // where a run prints its table
}

var experiments = []experiment{
	{"fig7", "E1: inventor vs greedy win percentage per link count (Fig. 7)", runFig7},
	{"participation", "E2: §5 offline equilibrium numbers (p = 1/4, gain v/16)", runParticipation},
	{"online-participation", "E3: §5 online last-mover advice and the 5v/24 bound", runOnlineParticipation},
	{"p1-scaling", "E4: Lemma 1 — P1 verifier time and bits vs game size", runP1Scaling},
	{"p2-queries", "E5: Remark 3 — P2 query counts vs hidden support size", runP2Queries},
	{"fig6", "E6: the Fig. 6 diamond network delays (2k+3 vs 2k+2)", runFig6},
	{"coq-proof", "E7: §3 enumeration-proof size and check time blow-up", runCoqProof},
	{"lemma2", "E8: Lemma 2 — greedy makespan vs (2 − 1/m)·OPT", runLemma2},
	{"fig5", "E9: Fig. 5 / Remark 2 — P2's equilibrium ambiguity", runFig5},
	{"ablation", "E10: §6's two statistics models — prior-known vs dynamic average", runAblation},
	{"adoption", "E11: §6's follow-the-inventor probability p swept from 0 to 1", runAdoption},
	{"federation", "E12: gossip vs all-pairs convergence at n=20/50 (BENCH_federation.json)", runFederation},
}

func main() {
	var (
		which  = flag.String("run", "all", "experiment to run (or 'all', 'list')")
		stride = flag.Int("stride", 25, "fig7: link-count stride over 2..500 (1 = the paper's full axis)")
		iters  = flag.Int("iters", 100, "fig7/lemma2: iterations per point")
		agents = flag.Int("agents", 1000, "fig7: agents per iteration")
		seed   = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()
	cfg := runConfig{stride: *stride, iters: *iters, agents: *agents, seed: *seed, out: os.Stdout}

	if *which == "list" {
		for _, e := range experiments {
			fmt.Printf("%-22s %s\n", e.name, e.desc)
		}
		return
	}
	ran := false
	for _, e := range experiments {
		if *which != "all" && *which != e.name {
			continue
		}
		ran = true
		fmt.Printf("==== %s — %s\n", e.name, e.desc)
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -run list)\n", *which)
		os.Exit(2)
	}
}
