package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of a comparison, per workload and metric.
const (
	within     = "within"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// medianSpread is how far a median of the summary's repetitions would itself
// spread: the repetitions' interquartile distance over the median, shrunk by
// the square root of their number, as the standard error of a median is.
func medianSpread(m metricSummary) float64 {
	if len(m.Raw) < 2 {
		return 0
	}
	return m.Spread / math.Sqrt(float64(len(m.Raw)))
}

// judge compares a metric's two medians against its bound. worse is how much
// worse b is than a, as a share of a, in the metric's own direction. When
// either side's median is itself uncertain by more than the bound, the box
// was too noisy to tell and the verdict is unresolved, not within.
func judge(a, b metricSummary, better string, bound float64) (worse float64, verdict string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
		if better == "higher" {
			worse = -worse
		}
	}
	switch {
	case medianSpread(a) > bound || medianSpread(b) > bound:
		return worse, unresolved
	case worse > bound:
		return worse, regressed
	}
	return worse, within
}

// compareFiles prints, per workload and end-to-end metric, b's median over
// a's with its base and the verdict. It exits 1 if anything regressed.
func compareFiles(out io.Writer, pathA, pathB, boundsPath string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readResult(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResult(pathB)
	if err != nil {
		return fail(err)
	}
	bf, err := readBenchmarkFile(boundsPath)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(out, "a = %s (seed %d, %d x %.1f s)   b = %s (seed %d, %d x %.1f s)\n",
		pathA, a.Seed, a.Reps, a.RepSeconds, pathB, b.Seed, b.Reps, b.RepSeconds)
	fmt.Fprintf(out, "%-14s %-26s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "a (base)", "b", "b/a", "+-med a", "+-med b", "bound", "verdict")
	code := 0
	for _, wl := range workloadNames {
		wa, wb := a.Workloads[wl], b.Workloads[wl]
		if wa == nil || wb == nil {
			return fail(fmt.Errorf("workload %s missing from a result file", wl))
		}
		for _, m := range bf.EndToEnd {
			ma, mb := wa.E2E[m.Name], wb.E2E[m.Name]
			_, verdict := judge(ma, mb, m.Better, m.Bound)
			if verdict == regressed {
				code = 1
			}
			fmt.Fprintf(out, "%-14s %-26s %12.4f %12.4f %8.3f %7.3f %7.3f %6.2f  %s\n",
				wl, m.Name, ma.Median, mb.Median, ratio(mb.Median, ma.Median), medianSpread(ma), medianSpread(mb), m.Bound, verdict)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(out, "%-14s %-26s %12d %12d  any failure regresses\n", wl, errorRatio.Name, wa.Failed, wb.Failed)
			if wb.Failed > wa.Failed {
				code = 1
			}
		}
	}
	return code
}
