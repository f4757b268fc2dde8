package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden tables from the current experiments:
// go test ./cmd/experiments -run TestGoldenTables -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenConfig is `experiments -stride 125 -iters 2 -agents 1000 -seed 1`.
// E1 keeps the paper's 1000 agents: with fewer agents than links, every
// greedy and inventor assignment ties and the sweep stops being Fig. 7.
var goldenConfig = runConfig{stride: 125, iters: 2, agents: 1000, seed: 1}

// notPinned names the experiments whose output is not a function of the
// config: E4 and E7 print wall times, and E12 writes BENCH_federation.json
// into the working directory.
var notPinned = map[string]bool{"p1-scaling": true, "coq-proof": true, "federation": true}

// TestGoldenTables runs every deterministic experiment at goldenConfig and
// compares what it prints with testdata/<name>.golden, so a paper number
// that moves (p = 1/4, 2k+3 against 2k+2, Fig. 7's curve, Lemma 2's bound)
// fails the suite.
func TestGoldenTables(t *testing.T) {
	for _, e := range experiments {
		if notPinned[e.name] {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			cfg := goldenConfig
			cfg.out = &buf
			if err := e.run(cfg); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", e.name+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden file (run with -update to create): %v", err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("%s differs from %s (re-run with -update after intentional changes): %s",
					e.name, golden, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff describes the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}
