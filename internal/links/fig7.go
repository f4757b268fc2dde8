package links

import (
	"fmt"
	"math/rand"
)

// Fig7Point is one x-axis point of the paper's Fig. 7: for a given number of
// links, the percentage of simulation iterations in which the inventor's
// final assignment was strictly better (smaller makespan) than greedy's.
type Fig7Point struct {
	Links int
	// BetterPct is the percentage of iterations where inventor < greedy.
	BetterPct float64
	// TiePct is the percentage of exact ties (not plotted in the paper but
	// useful context for small m, where both strategies often coincide).
	TiePct float64
	// MeanGreedy and MeanInventor are the mean makespans, for the shape
	// comparison `experiments -run fig7` prints (E1 in cmd/experiments).
	MeanGreedy   float64
	MeanInventor float64
}

// Fig7Config parameterizes the experiment. The paper uses Agents = 1000,
// MaxLoad = 1000, Links = 2..500.
type Fig7Config struct {
	Agents     int
	MaxLoad    int64
	Iterations int
	Seed       int64
}

// SimulatePoint runs the experiment for one link count.
func SimulatePoint(m int, cfg Fig7Config) (Fig7Point, error) {
	if m < 1 {
		return Fig7Point{}, fmt.Errorf("links: need at least one link")
	}
	if cfg.Agents < 1 || cfg.Iterations < 1 || cfg.MaxLoad < 1 {
		return Fig7Point{}, fmt.Errorf("links: invalid Fig7 config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(m)))
	better, ties := 0, 0
	var sumG, sumI float64
	for it := 0; it < cfg.Iterations; it++ {
		loads := UniformLoads(rng, cfg.Agents, cfg.MaxLoad)
		greedy, err := Run(m, loads, Greedy{})
		if err != nil {
			return Fig7Point{}, err
		}
		inventor, err := Run(m, loads, Inventor{})
		if err != nil {
			return Fig7Point{}, err
		}
		g, i := greedy.Makespan(), inventor.Makespan()
		sumG += float64(g)
		sumI += float64(i)
		switch {
		case i < g:
			better++
		case i == g:
			ties++
		}
	}
	n := float64(cfg.Iterations)
	return Fig7Point{
		Links:        m,
		BetterPct:    100 * float64(better) / n,
		TiePct:       100 * float64(ties) / n,
		MeanGreedy:   sumG / n,
		MeanInventor: sumI / n,
	}, nil
}

// PaperLinkCounts returns the x-axis of Fig. 7: m = 2, ..., 500. The stride
// parameter thins the sweep (stride 1 is the paper's full axis; the checked
// ‑in experiment binary defaults to a coarser stride to keep runtimes
// friendly, which does not change the curve's shape).
func PaperLinkCounts(stride int) []int {
	if stride < 1 {
		stride = 1
	}
	var ms []int
	for m := 2; m <= 500; m += stride {
		ms = append(ms, m)
	}
	return ms
}
