package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"rationality/internal/bimatrix"
	"rationality/internal/game"
	"rationality/internal/interactive"
	"rationality/internal/participation"
	"rationality/internal/proof"
)

// agrees holds one scanner to its fallback on one document: when the
// scan accepts, json.Unmarshal and the conversion must accept too and
// build the same value, compared through canon. When it declines,
// decodeOr runs the fallback itself, errors and all.
func agrees[S, T any](t *testing.T, data []byte, scan func(*scanner) (T, bool), to func(*S) (T, error), canon func(T) any) {
	t.Helper()
	s := &scanner{data: data}
	got, ok := scan(s)
	if !ok || !s.end() {
		return
	}
	var spec S
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("scanned %q into %T, which json.Unmarshal refuses: %v", data, got, err)
	}
	want, err := to(&spec)
	if err != nil {
		t.Fatalf("scanned %q into %T, which the conversion refuses: %v", data, got, err)
	}
	if !reflect.DeepEqual(canon(got), canon(want)) {
		t.Fatalf("scan of %q:\n got  %#v\n want %#v", data, canon(got), canon(want))
	}
}

func same[T any](v T) any { return v }

func ratStrings(rs ...*big.Rat) (out []string) {
	for _, r := range rs {
		if r == nil {
			out = append(out, "<nil>")
		} else {
			out = append(out, r.RatString())
		}
	}
	return out
}

// checkInputScan is every procedure-input scanner's contract on one
// document.
func checkInputScan(t *testing.T, data []byte) {
	t.Helper()
	agrees(t, data, (*scanner).game, (*GameSpec).ToGame, func(g *game.Game) any { return SpecFromGame(g) })
	agrees(t, data, (*scanner).bimatrix, (*BimatrixSpec).ToBimatrix, func(g *bimatrix.Game) any { return SpecFromBimatrix("", g) })
	agrees(t, data, (*scanner).participation, (*ParticipationSpec).ToParticipation,
		func(g *participation.Game) any { return SpecFromParticipation("", g) })
	agrees(t, data, (*scanner).participationAdvice, (*ParticipationAdviceSpec).rats,
		func(pt [2]*big.Rat) any { return ratStrings(pt[:]...) })
	agrees(t, data, (*scanner).nAgentAdvice, (*NAgentAdviceSpec).advice, func(a *interactive.NAgentAdvice) any {
		probs := make([]VecSpec, len(a.Probs))
		for i, v := range a.Probs {
			probs[i] = SpecFromVec(v)
		}
		return []any{a.Supports, probs}
	})
	agrees(t, data, (*scanner).correlated, (*CorrelatedAdviceSpec).entries, func(m map[string]*big.Rat) any {
		out := map[string]string{}
		for k, r := range m {
			out[k] = r.RatString()
		}
		return out
	})
	agrees(t, data, (*scanner).proof, itself[proof.Proof], same[proof.Proof])
	agrees(t, data, (*scanner).profile, itself[game.Profile], same[game.Profile])
	agrees(t, data, (*scanner).p1Advice, itself[interactive.P1Advice], same[interactive.P1Advice])
	agrees(t, data, (*scanner).lastMoverAdvice, itself[LastMoverAdviceSpec], same[LastMoverAdviceSpec])
}

// inputSeeds are every document the pinned procedure cases carry, plus
// the shapes the scanner must decline or read with care.
func inputSeeds(tb testing.TB) [][]byte {
	var docs [][]byte
	for _, c := range pinnedCases(tb, 1) {
		docs = append(docs, c.ann.Game, c.ann.Advice, c.ann.Proof)
	}
	for _, doc := range []string{
		`{"name":"g","strategyCounts":[2],"payoffs":[["1","-2/4"]]}`,
		`{"strategyCounts":[2],"payoffs":[["1","2"]],"name":"late"}`,
		`{"name":"g","strategyCounts":[2],"payoffs":[["1","2"]],"name":"twice"}`,
		`{"Name":"g","strategyCounts":[2],"payoffs":[["1","2"]]}`,
		`{"name":"g","strategyCounts":[2.0],"payoffs":[["1","2"]]}`,
		`{"name":"g","strategyCounts":[2],"payoffs":[["1","2"],["3","4"]]}`,
		`{"name":"g","strategyCounts":[2],"payoffs":[["1","0x2"]]}`,
		`{"name":"g","strategyCounts":[2],"payoffs":[["1","1/0"]]}`,
		`{"name":"g\u0041","strategyCounts":[2],"payoffs":[["1","\u0032"]]}`,
		`{"name":"g","strategyCounts":[2],"payoffs":null}`,
		`{"name":"m","a":[["1","2"],["3","4"]],"b":[["0","0"],["0","0"]]}`,
		`{"name":"m","a":[["1","2"],["3"]],"b":[["0","0"],["0","0"]]}`,
		`{"name":"m","a":[],"b":[]}`,
		`{"name":"m","a":[["1"]],"b":[["1","2"]]}`,
		`{"name":"p","n":3,"k":2,"v":"8","c":"3"}`,
		`{"name":"p","n":3,"k":2,"v":"8"}`,
		`{"p":"1/2"}`, `{"p":"1/2","tolerance":"1/10"}`, `{"p":"1/2","tolerance":""}`, `{"tolerance":"1/10"}`,
		`{"supports":[[0,1],[1]],"probs":[["1/2","1/2"],["1"]]}`, `{"supports":[[0]]}`, `{"probs":[[]]}`,
		`{"entries":[{"profile":[0,1],"prob":"1/2"},{"profile":[0,1],"prob":"1/2"}]}`,
		`{"entries":[{"profile":[0,1]}]}`, `{"entries":[]}`, `{}`,
		`{"entries":[{"profile":[0],"prob":"1"}],"entries":[{"profile":[1],"prob":"1"}]}`,
		`{"entries":[{"profile":[0],"prob":"1/2","prob":"1"}]}`,
		`{"rowSupport":[0],"colSupport":[],"rows":2,"cols":2}`, `{"rowSupport":[0],"rows":1e1}`,
		`{"decisions":[true,false,null]}`, `{"decisions":[true,false]}`,
		`[0,1]`, `[]`, `null`, `[0,-1,9223372036854775807]`, `[9223372036854775808]`,
		`{"mode":1,"advised":[0],"equilibria":[[0]],"nonEquilibria":[{"profile":[1],"agent":0,"strategy":0}]}`,
		`{"mode":2,"advised":[0],"equilibria":[],"nonEquilibria":[],"maxWitnesses":[{"equilibrium":[1],"kind":2,"agentFavoringOther":1}]}`,
		` {"name":"g","strategyCounts":[1],"payoffs":[["5"]]} `, `{"name":"g"}x`,
	} {
		docs = append(docs, []byte(doc))
	}
	return docs
}

func TestInputScanMatchesEncodingJSON(t *testing.T) {
	for _, doc := range inputSeeds(t) {
		checkInputScan(t, doc)
	}
}

// FuzzInputScan is the differential check of the procedure-input
// scanners against json.Unmarshal and the specs' conversions: each
// scanner builds the identical value or declines, never differs.
func FuzzInputScan(f *testing.F) {
	for _, doc := range inputSeeds(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkInputScan(t, data) })
}

// A scanned game keeps each whole-number payoff in its own word of the
// arena: setting one payoff leaves every other as it was read.
func TestScannedPayoffsDoNotAlias(t *testing.T) {
	spec := `{"name":"g","strategyCounts":[2,3],"payoffs":[["1","2","3","4","5","6"],["-1","-2","-3","7/2","0","9"]]}`
	g, err := decodeOr([]byte(spec), "%w", (*scanner).game, (*GameSpec).ToGame)
	if err != nil {
		t.Fatal(err)
	}
	want := SpecFromGame(g)
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 100)) // two words: a write past its own
	g.ForEachProfile(func(p game.Profile) bool {
		for i := 0; i < g.NumAgents(); i++ {
			old := g.Payoff(i, p)
			g.SetPayoff(i, p, huge)
			g.SetPayoff(i, p, old)
		}
		return true
	})
	if got := SpecFromGame(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("payoffs after setting each in turn: %v, want %v", got.Payoffs, want.Payoffs)
	}
}

// procAllocBudgets is how many allocations one pass over each format's
// pinned cases (TestProcedureVerdictsArePinned's inputs) costs, exactly. A
// change that raises a count fails here; one that lowers it lowers the
// budget in the same change.
var procAllocBudgets = map[string]float64{
	FormatEnumeration:   4391,
	FormatP1:            14335,
	FormatNAgent:        1638,
	FormatParticipation: 1611,
	FormatCorrelated:    839,
	FormatLastMover:     1219,
	FormatLinksRouting:  469,
}

func TestProcedureAllocBudgets(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates")
			}
		}
	}
	procs := NewProcedureRegistry()
	byFormat := map[string][]procCase{}
	for _, c := range pinnedCases(t, 1) {
		byFormat[c.ann.Format] = append(byFormat[c.ann.Format], c)
	}
	var report []string
	for _, format := range caseFormats {
		p, _ := procs.Lookup(format)
		cases := byFormat[format]
		// The least of three readings: AllocsPerRun counts every
		// goroutine's allocations, and the runtime's own can only add.
		got := math.Inf(1)
		for range 3 {
			got = min(got, testing.AllocsPerRun(5, func() {
				for _, c := range cases {
					p.Verify(c.ann.Game, c.ann.Advice, c.ann.Proof)
				}
			}))
		}
		report = append(report, fmt.Sprintf("%s: %v over %d cases", format, got, len(cases)))
		if got > procAllocBudgets[format] {
			t.Errorf("%s: %v allocations per pass over %d cases, budget %v", format, got, len(cases), procAllocBudgets[format])
		}
	}
	t.Log(strings.Join(report, "\n"))
}
