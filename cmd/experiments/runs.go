package main

import (
	"fmt"
	"math/rand"
	"time"

	"rationality/internal/bimatrix"
	"rationality/internal/congestion"
	"rationality/internal/game"
	"rationality/internal/interactive"
	"rationality/internal/links"
	"rationality/internal/numeric"
	"rationality/internal/participation"
	"rationality/internal/proof"
)

// E1 — Fig. 7.
func runFig7(cfg runConfig) error {
	fmt.Fprintf(cfg.out, "agents=%d loads~U[1,1000] iterations/point=%d stride=%d\n",
		cfg.agents, cfg.iters, cfg.stride)
	fmt.Fprintln(cfg.out, "links  inventor-better%  ties%  mean-makespan(greedy)  mean-makespan(inventor)")
	sim := links.Fig7Config{Agents: cfg.agents, MaxLoad: 1000, Iterations: cfg.iters, Seed: cfg.seed}
	for _, m := range links.PaperLinkCounts(cfg.stride) {
		pt, err := links.SimulatePoint(m, sim)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "%5d  %15.1f  %5.1f  %21.1f  %23.1f\n",
			pt.Links, pt.BetterPct, pt.TiePct, pt.MeanGreedy, pt.MeanInventor)
	}
	return nil
}

// E2 — §5 offline numbers.
func runParticipation(cfg runConfig) error {
	g := participation.MustNew(3, 2, numeric.I(8), numeric.I(3))
	fmt.Fprintln(cfg.out, "game: n=3, k=2, c/v=3/8 (v=8, c=3)  [paper §5]")
	for _, branch := range []participation.Branch{participation.LowBranch, participation.HighBranch} {
		p, ok := g.SolveExact(branch, 64)
		if !ok {
			return fmt.Errorf("no exact root on branch %d", branch)
		}
		gain, err := g.VerifyAdvice(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "branch=%d: p=%-4s verifier accepts; expected gain=%s (paper: p=1/4, gain=v/16=1/2)\n",
			branch, p.RatString(), gain.RatString())
	}
	// The verifier's side: conditional probabilities at p = 1/4.
	p := numeric.R(1, 4)
	fmt.Fprintf(cfg.out, "conditionals at p=1/4: A=%s B=%s C=%s D=%s  (Eq. 3)\n",
		g.Ak(p).RatString(), g.Bk(p).RatString(), g.Ck(p).RatString(), g.Dk(p).RatString())
	// Forged advice is rejected.
	if _, err := g.VerifyAdvice(numeric.R(1, 3)); err == nil {
		return fmt.Errorf("forged p accepted")
	}
	fmt.Fprintln(cfg.out, "forged advice p=1/3: rejected (indifference violated)")
	return nil
}

// E3 — §5 online numbers.
func runOnlineParticipation(cfg runConfig) error {
	g := participation.MustNew(3, 2, numeric.I(8), numeric.I(3))
	p := numeric.R(1, 4)
	honest, err := g.AnalyzeOnline(p, false)
	if err != nil {
		return err
	}
	flipped, err := g.AnalyzeOnline(p, true)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.out, "early movers play the offline p = 1/4; the inventor advises the last mover")
	fmt.Fprintf(cfg.out, "last-mover pivotal gain: v-c = %s (paper: 5v/8 = 5)\n",
		numeric.Sub(g.V(), g.C()).RatString())
	fmt.Fprintf(cfg.out, "last-mover expected gain  honest=%s  flipped=%s (false advice -> loss)\n",
		honest.LastMoverGain.RatString(), flipped.LastMoverGain.RatString())
	fmt.Fprintf(cfg.out, "random-order per-firm gain=%s  paper bound 5v/24=%s  offline v/16=%s\n",
		honest.RandomOrderGain.RatString(), numeric.R(5, 3).RatString(), numeric.R(1, 2).RatString())
	return nil
}

// E4 — Lemma 1: P1 verifier scaling. The instance family is the diagonal
// zero-sum "hide and seek" game, whose UNIQUE equilibrium is fully mixed:
// support enumeration (the prover) must sweep exponentially many support
// pairs before it reaches the full one, while the P1 verifier does a single
// linear solve on the advised supports.
func runP1Scaling(cfg runConfig) error {
	fmt.Fprintln(cfg.out, "size(n=m)  bits-on-wire  prover(support-enum)  verifier(P1)  ratio")
	for _, n := range []int{2, 3, 4, 5, 6, 7} {
		g, eq := hideAndSeekGame(n)
		adviceMsg := interactive.AdviceFromEquilibrium(g, eq)

		proverStart := time.Now()
		found, err := g.FindEquilibrium()
		if err != nil {
			return err
		}
		proverTime := time.Since(proverStart)
		if len(found.X.Support()) != n {
			return fmt.Errorf("n=%d: expected a fully mixed equilibrium", n)
		}

		verifStart := time.Now()
		if _, err := interactive.VerifyP1(g, adviceMsg); err != nil {
			return err
		}
		verifTime := time.Since(verifStart)

		ratio := float64(proverTime) / float64(verifTime)
		fmt.Fprintf(cfg.out, "%9d  %12d  %20s  %12s  %7.1fx\n",
			n, adviceMsg.BitsOnWire(), proverTime.Round(time.Microsecond),
			verifTime.Round(time.Microsecond), ratio)
	}
	// Verifier-only scaling on sizes where running the prover is hopeless —
	// exactly the regime the rationality authority is for.
	fmt.Fprintln(cfg.out, "verifier-only (prover intractable, advice supplied):")
	for _, n := range []int{8, 12, 16, 24, 32, 48} {
		g, eq := hideAndSeekGame(n)
		adviceMsg := interactive.AdviceFromEquilibrium(g, eq)
		verifStart := time.Now()
		if _, err := interactive.VerifyP1(g, adviceMsg); err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "%9d  %12d  %20s  %12s\n",
			n, adviceMsg.BitsOnWire(), "—", time.Since(verifStart).Round(time.Microsecond))
	}
	fmt.Fprintln(cfg.out, "verifier time grows polynomially (one linear solve); bits = n+m exactly (Lemma 1)")
	return nil
}

// hideAndSeekGame builds the n×n diagonal zero-sum game A(i,i) = i+1 (zero
// elsewhere), B = −A. Its unique equilibrium mixes over ALL strategies with
// probabilities proportional to 1/(i+1); no smaller support works, which
// forces the support-enumeration prover through the exponential sweep.
func hideAndSeekGame(n int) (*bimatrix.Game, *bimatrix.Equilibrium) {
	a := make([][]int64, n)
	b := make([][]int64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]int64, n)
		b[i] = make([]int64, n)
		a[i][i] = int64(i + 1)
		b[i][i] = -int64(i + 1)
	}
	g := bimatrix.FromInts(a, b)
	// Equilibrium: x_i = y_i = (1/(i+1)) / H where H = Σ 1/(j+1); the value
	// to the row agent is 1/H.
	h := numeric.Zero()
	for i := 0; i < n; i++ {
		h = numeric.Add(h, numeric.R(1, int64(i+1)))
	}
	x := numeric.NewVec(n)
	y := numeric.NewVec(n)
	for i := 0; i < n; i++ {
		p := numeric.Div(numeric.R(1, int64(i+1)), h)
		x.SetAt(i, p)
		y.SetAt(i, p)
	}
	value := numeric.Div(numeric.One(), h)
	return g, &bimatrix.Equilibrium{
		Profile:   bimatrix.Profile{X: x, Y: y},
		LambdaRow: value,
		LambdaCol: numeric.Neg(value),
	}
}

// E5 — Remark 3: P2 query counts.
func runP2Queries(cfg runConfig) error {
	fmt.Fprintln(cfg.out, "n=32 columns; hidden support of size s; average P2 queries until conclusive")
	fmt.Fprintln(cfg.out, "support-size  avg-queries  avg-bits-revealed")
	const n = 32
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		totalQ, totalRevealed := 0, 0
		const iters = 60
		for it := 0; it < iters; it++ {
			g, eq := diagonalGame(n, s)
			prover, err := interactive.NewHonestProver(g, eq,
				rand.New(rand.NewSource(cfg.seed+int64(1000*s+it))))
			if err != nil {
				return err
			}
			report, err := interactive.VerifyP2(g, interactive.RowAgent, prover, interactive.P2Config{
				Rng: rand.New(rand.NewSource(cfg.seed + int64(2000*s+it))),
			})
			if err != nil {
				return err
			}
			totalQ += report.Queries
			totalRevealed += report.RevealedIndices
		}
		fmt.Fprintf(cfg.out, "%12d  %11.1f  %17.1f\n", s, float64(totalQ)/iters, float64(totalRevealed)/iters)
	}
	fmt.Fprintln(cfg.out, "Θ(n) supports need O(1) queries; constant supports need Θ(n) (Remark 3)")
	return nil
}

func diagonalGame(n, s int) (*bimatrix.Game, *bimatrix.Equilibrium) {
	a := make([][]int64, n)
	b := make([][]int64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]int64, n)
		b[i] = make([]int64, n)
	}
	for i := 0; i < s; i++ {
		a[i][i], b[i][i] = 1, 1
	}
	g := bimatrix.FromInts(a, b)
	x := numeric.NewVec(n)
	y := numeric.NewVec(n)
	for i := 0; i < s; i++ {
		x.SetAt(i, numeric.R(1, int64(s)))
		y.SetAt(i, numeric.R(1, int64(s)))
	}
	return g, &bimatrix.Equilibrium{
		Profile:   bimatrix.Profile{X: x, Y: y},
		LambdaRow: numeric.R(1, int64(s)),
		LambdaCol: numeric.R(1, int64(s)),
	}
}

// E6 — Fig. 6.
func runFig6(cfg runConfig) error {
	fmt.Fprintln(cfg.out, "k    greedy-final-delay  alternative-path-delay  (paper: 2k+3 vs 2k+2)")
	for _, k := range []int{0, 1, 2, 5, 10, 50} {
		res, err := congestion.BuildFig6(k)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "%-4d %18s  %22s\n",
			k, res.GreedyFinalDelay.RatString(), res.AlternativeFinalDelay.RatString())
	}
	return nil
}

// E7 — §3 proof blow-up.
func runCoqProof(cfg runConfig) error {
	fmt.Fprintln(cfg.out, "agents x strategies  profiles  proof-steps  proof-bytes  build-time  check-time")
	rng := rand.New(rand.NewSource(cfg.seed))
	shapes := []struct {
		agents, strategies int
	}{
		{2, 2}, {2, 4}, {2, 8}, {3, 4}, {4, 4}, {2, 32}, {3, 10}, {5, 4},
	}
	for _, shape := range shapes {
		counts := make([]int, shape.agents)
		for i := range counts {
			counts[i] = shape.strategies
		}
		var g *game.Game
		var pf *proof.Proof
		// Redraw until the random game has a pure equilibrium.
		for {
			g = game.RandomGame("r", counts, 8, rng.Int63n)
			var err error
			pf, err = proof.BuildBestAdvice(g, proof.MaxNash)
			if err == nil {
				break
			}
		}
		buildStart := time.Now()
		if _, err := proof.Build(g, pf.Advised, proof.MaxNash); err != nil {
			return err
		}
		buildTime := time.Since(buildStart)
		data, err := pf.Marshal()
		if err != nil {
			return err
		}
		checkStart := time.Now()
		if err := proof.Check(g, pf); err != nil {
			return err
		}
		checkTime := time.Since(checkStart)
		fmt.Fprintf(cfg.out, "%7dx%-10d  %8d  %11d  %11d  %10s  %10s\n",
			shape.agents, shape.strategies, g.NumProfiles(), pf.Steps(), len(data),
			buildTime.Round(time.Microsecond), checkTime.Round(time.Microsecond))
	}
	fmt.Fprintln(cfg.out, "proof size tracks the profile space — the intractability §3 warns about")
	return nil
}

// E8 — Lemma 2.
func runLemma2(cfg runConfig) error {
	fmt.Fprintln(cfg.out, "m  n   greedy  OPT  (2-1/m)*OPT  bound-holds")
	rng := rand.New(rand.NewSource(cfg.seed))
	worst := 0.0
	for _, m := range []int{2, 3, 4} {
		for trial := 0; trial < 4; trial++ {
			n := 6 + rng.Intn(8)
			loads := links.UniformLoads(rng, n, 100)
			s, err := links.Run(m, loads, links.Greedy{})
			if err != nil {
				return err
			}
			opt, err := links.OptimalMakespan(m, loads)
			if err != nil {
				return err
			}
			bound := float64(opt) * (2 - 1/float64(m))
			holds := links.BoundAgainstOPT(s.Makespan(), opt, m)
			if r := float64(s.Makespan()) / float64(opt); r > worst {
				worst = r
			}
			fmt.Fprintf(cfg.out, "%d  %2d  %6d  %3d  %11.1f  %v\n", m, n, s.Makespan(), opt, bound, holds)
			if !holds {
				return fmt.Errorf("Lemma 2 violated")
			}
		}
	}
	fmt.Fprintf(cfg.out, "worst observed greedy/OPT ratio: %.3f (Lemma 2 allows up to 2-1/m)\n", worst)
	return nil
}

// E10 — ablation: the §6 inventor's two statistics models. "In the first
// case, the inventor has prior knowledge about the loads ... In the second
// case, the inventor dynamically updates its information." Fig. 7 evaluates
// the second; this run compares both against greedy on the same workloads.
func runAblation(cfg runConfig) error {
	fmt.Fprintln(cfg.out, "links  dynamic-beats-greedy%  prior-beats-greedy%  mean-makespan greedy/dynamic/prior")
	iters := min(cfg.iters, 50)
	for _, m := range []int{2, 25, 100, 250, 500} {
		rng := rand.New(rand.NewSource(cfg.seed + int64(m)))
		dynBetter, priBetter := 0, 0
		var sumG, sumD, sumP float64
		for it := 0; it < iters; it++ {
			loads := links.UniformLoads(rng, cfg.agents, 1000)
			greedy, err := links.Run(m, loads, links.Greedy{})
			if err != nil {
				return err
			}
			dynamic, err := links.Run(m, loads, links.Inventor{})
			if err != nil {
				return err
			}
			prior, err := links.Run(m, loads, links.NewUniformPrior(1000))
			if err != nil {
				return err
			}
			if dynamic.Makespan() < greedy.Makespan() {
				dynBetter++
			}
			if prior.Makespan() < greedy.Makespan() {
				priBetter++
			}
			sumG += float64(greedy.Makespan())
			sumD += float64(dynamic.Makespan())
			sumP += float64(prior.Makespan())
		}
		n := float64(iters)
		fmt.Fprintf(cfg.out, "%5d  %21.1f  %19.1f  %8.0f / %8.0f / %8.0f\n",
			m, 100*float64(dynBetter)/n, 100*float64(priBetter)/n, sumG/n, sumD/n, sumP/n)
	}
	fmt.Fprintln(cfg.out, "with 1000 agents the running average converges fast: the two models track closely")
	return nil
}

// E11 — §6's behavioural model: each agent follows the inventor with
// probability p and plays greedy otherwise (Fig. 7 is the p = 1 extreme).
func runAdoption(cfg runConfig) error {
	iters := min(cfg.iters, 50)
	const m = 100
	fmt.Fprintf(cfg.out, "m=%d links, %d agents, %d iterations per point\n", m, cfg.agents, iters)
	fmt.Fprintln(cfg.out, "p      mixed-beats-greedy%  mean-makespan(mixed)  mean-makespan(greedy)")
	pts, err := links.AdoptionSweep(m, []float64{0, 0.25, 0.5, 0.75, 1},
		links.Fig7Config{Agents: cfg.agents, MaxLoad: 1000, Iterations: iters, Seed: cfg.seed})
	if err != nil {
		return err
	}
	for _, pt := range pts {
		fmt.Fprintf(cfg.out, "%.2f   %19.1f  %20.1f  %21.1f\n",
			pt.P, pt.BetterPct, pt.MeanMixed, pt.MeanGreedy)
	}
	fmt.Fprintln(cfg.out, "the inventor's benefit grows with the fraction of agents that consult it")
	return nil
}

// E9 — Fig. 5 / Remark 2.
func runFig5(cfg runConfig) error {
	g := bimatrix.FromInts(
		[][]int64{{1, 1}, {0, 2}},
		[][]int64{{1, 1}, {1, 0}},
	)
	advice := &interactive.P1Advice{RowSupport: []int{0}, ColSupport: []int{0, 1}, Rows: 2, Cols: 2}
	eq, err := interactive.VerifyP1(g, advice)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "Fig. 5 game, S1={A}: P1 recovers an equilibrium with λ1=%s λ2=%s (paper: both 1)\n",
		eq.LambdaRow.RatString(), eq.LambdaCol.RatString())
	fmt.Fprintln(cfg.out, "Remark 2 ambiguity — column mixes consistent with what the row agent sees:")
	for _, qd := range []string{"0", "1/4", "1/2", "3/4"} {
		q := numeric.MustRat(qd)
		y := numeric.VecOf(numeric.Sub(numeric.One(), q), q)
		ok := g.IsEquilibrium(bimatrix.Profile{X: numeric.VecOfInts(1, 0), Y: y})
		fmt.Fprintf(cfg.out, "  qD=%-4s equilibrium=%v\n", qd, ok)
	}
	fmt.Fprintln(cfg.out, "every qD <= 1/2 is consistent: P2 reveals none of them (privacy)")
	return nil
}
