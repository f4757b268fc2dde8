// Command bench is the repository's benchmark: it builds cmd/authority, starts
// real verifier processes on loopback TCP, drives four named workloads at them
// from this one generator process, checks every reply, and reports end-to-end
// and per-layer metrics by name. It measures strictly from outside the
// program: wire replies, /proc, the service-stats message, the operator
// plane's MemStats, and timed calls into each layer's public functions.
//
//	go run ./bench -seed 1                      every workload, result.json, traces
//	go run ./bench -workload hot-verify ...     one workload, one JSON line (the driver's form)
//	go run ./bench -compare a.json b.json       two result files against the bounds
//	go run ./bench -dry-run                     every metric name and unit, nothing run
//
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

const outDir = "bench/out"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 1 && args[0] == echoChildFlag {
		return runEchoChild()
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same catalog and request order")
	workload := fs.String("workload", "", "run this one workload and print one JSON result line (the driver's form); empty runs all four")
	seconds := fs.Float64("seconds", 0, "with -workload: measured seconds of the run, split over its repetitions")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 a traced run's per-layer metrics")
	reps := fs.Int("reps", 10, "without -workload: repetitions per workload, interleaved round-robin")
	repSeconds := fs.Float64("rep-seconds", 3, "without -workload: measured seconds per repetition")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	bounds := fs.String("bounds", "BENCHMARK.json", "with -compare: the file holding each end-to-end metric's bound")
	dryRun := fs.Bool("dry-run", false, "print every metric name with its unit and run nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *dryRun:
		printNames(os.Stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1), *bounds)
	}
	if *workload != "" && !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have %s\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}

	// Children are killed and scratch removed on every way out: normal
	// return, failure, SIGINT or SIGTERM.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, buildTook, err := newEnv(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.close()
	go func() {
		<-ctx.Done()
		e.close() // unblocks every call in flight; the run then fails and returns
	}()

	var code int
	if *workload != "" {
		code = runOne(ctx, e, buildTook, *workload, *seed, *seconds, *trace == 1)
	} else {
		code = runAll(ctx, e, buildTook, *seed, *reps, *repSeconds)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		return 1
	}
	return code
}

// driverReps is how many repetitions a driver run splits its seconds into.
// Each repetition sets up afresh, so a run's setup_s is a median of five.
const driverReps = 5

// driverRunBudget is how long a driver run may have taken and still start an
// extra repetition. An undisturbed run of 15 s takes about 28 s.
const driverRunBudget = 30 * time.Second

// maxSteal is the share of CPU time the hypervisor may have given to other
// guests during a repetition for it to count as quiet. On this box a quiet
// repetition shows none; a disturbed one shows 3% to 40%.
const maxSteal = 0.02

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the one JSON object a driver run prints last.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne is the driver's form: one workload, one seed, `seconds` of measured
// time split over driverReps repetitions, and one JSON line with either every
// end-to-end metric (medians over the repetitions) or, traced, every
// per-layer metric.
func runOne(ctx context.Context, e *env, buildTook time.Duration, wl string, seed int64, seconds float64, traced bool) int {
	if seconds <= 0 {
		seconds = 15
	}
	w := newWorkloadRun(wl)
	var err error
	if traced {
		err = w.tracedRun(ctx, e, buildTook, seed, seconds)
	} else {
		// Repetitions the hypervisor disturbed are made up for with extra
		// ones, while the run's wall-clock allowance lasts.
		started := time.Now()
		for rep := 0; err == nil && (rep < driverReps ||
			len(w.quiet()) < driverReps && rep < 2*driverReps && time.Since(started) < driverRunBudget); rep++ {
			err = w.rep(ctx, e, seed, rep, seconds/driverReps, rep == 0)
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %d repetitions, %d undisturbed by the hypervisor\n", wl, len(w.reps), len(w.quiet()))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	out := driverResult{Attempted: w.attempted, Failed: w.failed, Correct: w.failed == 0, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, w.e2eMedians()
	if traced {
		defs, values = perLayer, w.layer
		for _, t := range w.stageTables {
			fmt.Fprintln(os.Stderr, t)
		}
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	if w.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed; first: %s\n", w.failed, w.attempted, w.firstErr)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if w.failed > 0 {
		return 1
	}
	return 0
}

// workloadRun accumulates one workload's repetitions.
type workloadRun struct {
	name      string
	reps      []*repResult
	wire      float64            // wire_bytes_per_verdict, from the one wire pass
	layer     map[string]float64 // per-layer metrics of the traced run
	attempted int
	failed    int
	firstErr  string
	// The unloaded passes of the traced run: which repetition's request
	// sources they drew from, the observed p50 and p10 by sample kind, and
	// the stage tables printed against them.
	unloadedRep int
	unloadedP50 map[string]float64
	unloadedP10 map[string]float64
	stageTables []string
}

func newWorkloadRun(name string) *workloadRun {
	return &workloadRun{name: name, layer: map[string]float64{}}
}

// rep runs one untraced repetition and tears it down. One repetition of a
// workload also carries the wire pass, after everything that is timed.
func (w *workloadRun) rep(ctx context.Context, e *env, seed int64, rep int, seconds float64, wire bool) (err error) {
	res, rg, err := runRep(ctx, e, w.name, seed, rep, seconds, nil)
	if rg != nil {
		defer func() {
			if terr := rg.tearDown(); err == nil {
				err = terr
			}
		}()
	}
	w.note(res)
	if err != nil {
		return err
	}
	if wire {
		var log opLog
		w.wire, err = rg.wirePass(ctx, &log)
		w.noteLog(&log)
		if err != nil {
			return fmt.Errorf("%s wire pass: %w", w.name, err)
		}
	}
	w.reps = append(w.reps, res)
	return nil
}

func (w *workloadRun) note(res *repResult) {
	w.attempted += res.Attempted
	w.failed += res.Failed
	if w.firstErr == "" {
		w.firstErr = res.FirstErr
	}
}

func (w *workloadRun) noteLog(l *opLog) {
	w.attempted += l.attempted
	w.failed += l.failed
	if w.firstErr == "" && l.firstErr != nil {
		w.firstErr = l.firstErr.Error()
	}
}

// e2eValues returns one end-to-end metric's value in every repetition.
func (w *workloadRun) e2eValues(name string) []float64 {
	switch name {
	case "wire_bytes_per_verdict":
		return []float64{w.wire}
	case errorRatio.Name: // over everything checked, wire pass and traced pass included
		return []float64{ratio(float64(w.failed), float64(w.attempted))}
	}
	reps := w.chosen()
	vals := make([]float64, 0, len(reps))
	for _, r := range reps {
		vals = append(vals, r.E2E[name])
	}
	return vals
}

// chosen returns the repetitions the medians are taken over: the quiet ones,
// or all of them when fewer than three were quiet.
func (w *workloadRun) chosen() []*repResult {
	if q := w.quiet(); len(q) >= 3 {
		return q
	}
	return w.reps
}

// quiet returns the repetitions the hypervisor left alone.
func (w *workloadRun) quiet() []*repResult {
	var out []*repResult
	for _, r := range w.reps {
		if r.Layer["host.steal_ratio"] <= maxSteal {
			out = append(out, r)
		}
	}
	return out
}

func (w *workloadRun) e2eMedians() map[string]float64 {
	m := map[string]float64{}
	for _, d := range printedEndToEnd {
		m[d.Name] = median(w.e2eValues(d.Name))
	}
	return m
}

// tracedRun is what `-trace 1` and the full run's traced pass do: untraced
// and traced repetitions alternating (their difference is the tracing
// overhead), the unloaded passes, and the in-process layer replay.
func (w *workloadRun) tracedRun(ctx context.Context, e *env, buildTook time.Duration, seed int64, seconds float64) error {
	tr := newTracer()
	const pairs = 2
	repSeconds := seconds / (2 * pairs)
	var plain, traced []*repResult
	for i := 0; i < pairs; i++ {
		for _, t := range []*tracer{nil, tr} {
			res, rg, err := runRep(ctx, e, w.name, seed, len(plain)+len(traced), repSeconds, t)
			w.note(res)
			if err == nil && t != nil && i == pairs-1 {
				// The last traced repetition's servers also take the
				// unloaded passes the reconciliation is built on.
				err = w.unloaded(ctx, rg, tr)
			}
			if rg != nil {
				if terr := rg.tearDown(); err == nil {
					err = terr
				}
			}
			if err != nil {
				return err
			}
			if t == nil {
				plain = append(plain, res)
			} else {
				traced = append(traced, res)
			}
		}
	}
	// Per-repetition layer metrics come from the untraced repetitions where
	// they exist there (tracing off is the cleaner measurement) and from the
	// traced ones otherwise (the MemStats reads).
	w.layerMedians(traced)
	w.layerMedians(plain)
	// Pooled over the repetitions of each side, so that one stalled
	// repetition of two does not decide the ratio.
	w.layer["trace.overhead_ratio"] = ratio(pooledMedian(traced), pooledMedian(plain)) - 1
	w.layer["authority.build_s"] = buildTook.Seconds()
	if err := w.layerReplay(ctx, e, seed, tr); err != nil {
		return fmt.Errorf("%s layer replay: %w", w.name, err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return tr.writeFile(filepath.Join(outDir, "trace-"+w.name+".jsonl"))
}

// layerMedians sets every per-layer metric these repetitions measured to its
// median over them.
func (w *workloadRun) layerMedians(reps []*repResult) {
	for _, d := range perLayer {
		var vals []float64
		for _, r := range reps {
			if v, ok := r.Layer[d.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			w.layer[d.Name] = median(vals)
		}
	}
}

// pooledMedian is the median of the workload's main operation's latency over
// every such operation of the given repetitions.
func pooledMedian(reps []*repResult) float64 {
	var all []float64
	for _, r := range reps {
		all = append(all, r.mainLatencies...)
	}
	return median(all)
}

// environment is recorded beside every result: numbers from another box are
// another baseline.
type environment struct {
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Kernel    string `json:"kernel"`
	Loopback  string `json:"loopback"`
}

func readEnvironment() environment {
	env := environment{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Loopback: "127.0.0.1, kernel TCP, no injected delay"}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	return env
}

// metricSummary is one end-to-end metric of one workload over its repetitions.
type metricSummary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Spread  float64   `json:"iqr_over_median"`
	Samples int       `json:"samples_per_rep,omitempty"`
	Raw     []float64 `json:"raw"`
}

// workloadSummary is one workload's part of result.json.
type workloadSummary struct {
	Reps      int                      `json:"reps"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	FirstErr  string                   `json:"first_error,omitempty"`
	E2E       map[string]metricSummary `json:"end_to_end"`
	Layer     map[string]float64       `json:"per_layer"`
	// StageTables are the traced run's disjoint stages of a unary verify,
	// summed and set against the unloaded round trip they should explain.
	StageTables []string  `json:"stage_tables"`
	Calib       []float64 `json:"host_calib_mb_per_s"`
}

// result is result.json.
type result struct {
	Seed        int64                       `json:"seed"`
	Reps        int                         `json:"reps"`
	RepSeconds  float64                     `json:"rep_seconds"`
	Environment environment                 `json:"environment"`
	Workloads   map[string]*workloadSummary `json:"workloads"`
	Findings    []string                    `json:"findings"`
	// Claim is always null: this benchmark measures, it does not claim.
	Claim *string `json:"claim"`
}

func (w *workloadRun) summary() *workloadSummary {
	s := &workloadSummary{Reps: len(w.reps), Attempted: w.attempted, Failed: w.failed, FirstErr: w.firstErr,
		E2E: map[string]metricSummary{}, Layer: w.layer, StageTables: w.stageTables}
	for _, d := range printedEndToEnd {
		raw := w.e2eValues(d.Name)
		lo, hi := minMax(raw)
		ms := metricSummary{Unit: d.Unit, Median: median(raw), Min: lo, Max: hi, Spread: spread(raw), Raw: raw}
		if len(w.reps) > 0 {
			ms.Samples = w.reps[0].Samples[d.Name]
		}
		s.E2E[d.Name] = ms
	}
	for _, r := range w.reps {
		s.Calib = append(s.Calib, r.Layer["host.calib_mb_per_s"])
	}
	return s
}

// runAll is the full run: every workload, repetitions interleaved round-robin
// so a slow drift of the shared box hits all four alike, then each workload's
// traced pass; prints every metric and writes result.json and the traces.
func runAll(ctx context.Context, e *env, buildTook time.Duration, seed int64, reps int, repSeconds float64) int {
	runs := make([]*workloadRun, len(workloadNames))
	for i, name := range workloadNames {
		runs[i] = newWorkloadRun(name)
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for rep := 0; rep < reps; rep++ {
		for _, w := range runs {
			fmt.Fprintf(os.Stderr, "rep %d/%d %s\n", rep+1, reps, w.name)
			if err := w.rep(ctx, e, seed, rep, repSeconds, rep == 0); err != nil {
				return fail(err)
			}
		}
	}
	for _, w := range runs {
		fmt.Fprintf(os.Stderr, "traced pass %s\n", w.name)
		if err := w.tracedRun(ctx, e, buildTook, seed, 4*repSeconds); err != nil {
			return fail(err)
		}
		w.layerMedians(w.chosen()) // the timed repetitions outvote the traced pass's few
	}
	res := result{Seed: seed, Reps: reps, RepSeconds: repSeconds, Environment: readEnvironment(),
		Workloads: map[string]*workloadSummary{}, Findings: []string{}}
	failed := 0
	for _, w := range runs {
		res.Workloads[w.name] = w.summary()
		failed += w.failed
		res.Findings = append(res.Findings, w.findings()...)
	}
	printResult(os.Stdout, &res)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	data, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return fail(err)
	}
	summary, err := json.Marshal(map[string]any{"result": filepath.Join(outDir, "result.json"), "failed": failed, "claim": nil})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(summary))
	if failed > 0 {
		return fail(errors.New("operations failed; see error_ratio above"))
	}
	return 0
}

// findings states the reconciliation gaps beyond ±0.20 plainly.
func (w *workloadRun) findings() []string {
	var out []string
	for _, name := range []string{"recon.hot_gap_ratio", "recon.fresh_gap_ratio"} {
		if g, ok := w.layer[name]; ok && (g > 0.20 || g < -0.20) {
			out = append(out, fmt.Sprintf("%s: %s = %+.3f: the stage table explains the unloaded round trip to worse than 20%%", w.name, name, g))
		}
	}
	return out
}

// printNames lists every metric with its unit, for -dry-run.
func printNames(out io.Writer) {
	fmt.Fprintln(out, "workloads:", strings.Join(workloadNames, " "))
	for _, d := range printedEndToEnd {
		fmt.Fprintf(out, "end_to_end %-28s %-6s %s is better, bound %.2f\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	for _, d := range perLayer {
		fmt.Fprintf(out, "per_layer  %-34s %-6s moves: %s\n", d.Name, d.Unit, d.Moves)
	}
}

// printResult prints every metric by name with its unit and sample count.
func printResult(out io.Writer, res *result) {
	env := res.Environment
	fmt.Fprintf(out, "seed %d, %d repetitions x %.1f s per workload, %d CPUs, %s, kernel %s\n",
		res.Seed, res.Reps, res.RepSeconds, env.NumCPU, env.GoVersion, env.Kernel)
	for _, name := range workloadNames {
		w := res.Workloads[name]
		fmt.Fprintf(out, "\n== %s: %d operations checked, %d failed\n", name, w.Attempted, w.Failed)
		for _, d := range printedEndToEnd {
			m := w.E2E[d.Name]
			fmt.Fprintf(out, "  %-28s %12.4f %-5s  min %.4f  max %.4f  iqr/median %.3f  reps %d", d.Name, m.Median, m.Unit, m.Min, m.Max, m.Spread, len(m.Raw))
			if m.Samples > 0 {
				fmt.Fprintf(out, "  samples/rep %d (supports p%g)", m.Samples, supportedPercentile(m.Samples)*100)
			}
			fmt.Fprintln(out)
		}
		names := make([]string, 0, len(w.Layer))
		for n := range w.Layer {
			names = append(names, n)
		}
		sort.Strings(names)
		units := map[string]string{}
		for _, d := range perLayer {
			units[d.Name] = d.Unit
		}
		for _, n := range names {
			fmt.Fprintf(out, "  %-36s %14.4f %s\n", n, w.Layer[n], units[n])
		}
		for _, t := range w.StageTables {
			fmt.Fprintln(out, "  stages:", t)
		}
	}
	for _, f := range res.Findings {
		fmt.Fprintln(out, "finding:", f)
	}
}
