package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rationality/internal/bimatrix"
	"rationality/internal/game"
	"rationality/internal/numeric"
	"rationality/internal/participation"
	"rationality/internal/proof"
)

// -update rewrites testdata/verdicts.golden from the current procedures:
// go test ./internal/core -run TestProcedureVerdictsArePinned -update
var update = flag.Bool("update", false, "rewrite golden files")

// procCase is one announcement the bundled procedures are run over.
type procCase struct {
	name string
	ann  Announcement
}

// The catalog generator below has the shape of the benchmark's catalog
// (bench/catalog.go): slot i holds the same format at the same size for every
// seed, one slot in twenty is forged, payoffs are two-digit integers and
// probabilities have small denominators.
var caseFormats = [...]string{
	FormatEnumeration,
	FormatP1,
	FormatNAgent,
	FormatParticipation,
	FormatCorrelated,
	FormatLastMover,
	FormatLinksRouting,
}

var caseForgeable = [...]string{FormatEnumeration, FormatP1, FormatParticipation, FormatLastMover}

func caseShape(slot int) (format string, size int, forged bool) {
	format = caseFormats[slot%len(caseFormats)]
	size = (slot / len(caseFormats)) % 7
	if slot%20 == 3 {
		forged = true
		format = caseForgeable[(slot/20)%len(caseForgeable)]
	}
	return format, size, forged
}

func casePay(rng *rand.Rand) int64 { return 10 + rng.Int63n(90) }

// catalogCases returns the first n catalog slots for a seed.
func catalogCases(t testing.TB, seed int64, n int) []procCase {
	t.Helper()
	out := make([]procCase, n)
	for slot := range out {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(slot)))
		format, size, forged := caseShape(slot)
		name := fmt.Sprintf("cat-%03d", slot)
		ann, err := catalogAnnouncement(rng, name, format, size, forged)
		if err != nil {
			t.Fatalf("slot %d (%s): %v", slot, format, err)
		}
		label := "honest"
		if forged {
			label = "forged"
		}
		out[slot] = procCase{name: fmt.Sprintf("%s/%s/size%d/%s", name, format, size, label), ann: ann}
	}
	return out
}

func catalogAnnouncement(rng *rand.Rand, name, format string, size int, forged bool) (Announcement, error) {
	switch format {
	case FormatEnumeration:
		counts := []int{3, 3}
		if size%2 == 1 {
			counts = []int{2, 2, 2}
		}
		for try := 0; try < 64; try++ {
			g := payGame(rng, name, counts)
			ann, err := AnnounceEnumeration("inv", g, proof.MaxNash)
			if err != nil {
				continue
			}
			if !forged {
				return ann, nil
			}
			var advised game.Profile
			if err := json.Unmarshal(ann.Advice, &advised); err != nil {
				return Announcement{}, err
			}
			advised[0] = (advised[0] + 1) % counts[0]
			return AnnounceEnumerationForged("inv", g, advised)
		}
		return Announcement{}, fmt.Errorf("no game with a pure equilibrium in 64 draws")
	case FormatP1:
		g, full := hideAndSeek(rng, 2+size)
		switch {
		case forged:
			return AnnounceP1Forged("inv", name, g, []int{0}, []int{0}), nil
		case len(full) <= 3:
			return AnnounceP1("inv", name, g)
		default:
			return AnnounceP1Forged("inv", name, g, full, full), nil
		}
	case FormatNAgent:
		counts := []int{2, 2, 2}
		if size%2 == 1 {
			counts = []int{2, 3, 2}
		}
		g, err := indifferentGame(rng, name, counts)
		if err != nil {
			return Announcement{}, err
		}
		return AnnounceNAgent("inv", g, eighths(rng, counts))
	case FormatParticipation:
		g, p := exactParticipation(rng, size)
		if forged {
			p = numeric.Add(p, numeric.R(1, 97))
		}
		return AnnounceParticipationForged("inv", name, g, p.RatString()), nil
	case FormatCorrelated:
		counts := [][]int{{2, 2}, {3, 3}, {2, 2, 2}, {2, 3}}[size%4]
		return AnnounceCorrelated("inv", payGame(rng, name, counts))
	case FormatLastMover:
		g, _ := exactParticipation(rng, size)
		if forged {
			return AnnounceLastMoverFlipped("inv", name, g)
		}
		return AnnounceLastMover("inv", name, g)
	case FormatLinksRouting:
		return AnnounceLinksRouting("inv", routingCase(rng, size))
	}
	return Announcement{}, fmt.Errorf("no generator for format %q", format)
}

func payGame(rng *rand.Rand, name string, counts []int) *game.Game {
	g, err := game.FromFunc(name, counts, func(int, game.Profile) *big.Rat { return numeric.I(casePay(rng)) })
	if err != nil {
		panic(err)
	}
	return g
}

// hideAndSeek is a k×k game with A diagonal and B = −A: its one equilibrium
// is fully mixed, so P1 solves a full k×k system.
func hideAndSeek(rng *rand.Rand, k int) (*bimatrix.Game, []int) {
	a := make([][]int64, k)
	b := make([][]int64, k)
	full := make([]int, k)
	for i := range a {
		a[i] = make([]int64, k)
		b[i] = make([]int64, k)
		a[i][i] = casePay(rng)
		b[i][i] = -a[i][i]
		full[i] = i
	}
	return bimatrix.FromInts(a, b), full
}

// indifferentGame is a game in which an agent's payoff ignores its own
// action, so every mixed profile is an equilibrium.
func indifferentGame(rng *rand.Rand, name string, counts []int) (*game.Game, error) {
	table := make(map[string]*big.Rat)
	return game.FromFunc(name, counts, func(agent int, p game.Profile) *big.Rat {
		others := p.Clone()
		others[agent] = 0
		key := fmt.Sprint(agent, others)
		if table[key] == nil {
			table[key] = numeric.I(casePay(rng))
		}
		return table[key]
	})
}

// eighths draws a fully mixed profile with denominators 8.
func eighths(rng *rand.Rand, counts []int) game.MixedProfile {
	mp := make(game.MixedProfile, len(counts))
	for i, n := range counts {
		v := numeric.NewVec(n)
		rest := int64(8)
		for s := 0; s < n-1; s++ {
			w := 1 + rng.Int63n(rest-int64(n-1-s))
			v.SetAt(s, numeric.R(w, 8))
			rest -= w
		}
		v.SetAt(n-1, numeric.R(rest, 8))
		mp[i] = v
	}
	return mp
}

// exactParticipation sets the fee to the pivot value at p = a/8, so p is an
// exact root of Eq. (5).
func exactParticipation(rng *rand.Rand, size int) (*participation.Game, *big.Rat) {
	n := 3 + size%4
	k := 2 + size%(n-1)
	v := numeric.I(casePay(rng))
	p := numeric.R(1+rng.Int63n(3), 8)
	c := numeric.Mul(v, numeric.Mul(numeric.Binomial(n-1, k-1),
		numeric.Mul(numeric.Pow(p, k-1), numeric.Pow(numeric.Sub(numeric.One(), p), n-k))))
	return participation.MustNew(n, k, v, c), p
}

func routingCase(rng *rand.Rand, size int) LinksRoutingSpec {
	spec := LinksRoutingSpec{Loads: make([]int64, 2+size), AgentLoad: casePay(rng), Remaining: size}
	for i := range spec.Loads {
		spec.Loads[i] = casePay(rng)
	}
	spec.ObservedCount = 1 + size
	spec.ObservedTotal = spec.AgentLoad + int64(size)*casePay(rng)
	return spec
}

// pinnedCases adds to the catalog the announcements its forgeries miss: a
// forged advice for every format, degenerate and random bimatrix supports,
// proofs checked against the wrong game, and malformed inputs.
func pinnedCases(t testing.TB, seed int64) []procCase {
	t.Helper()
	out := catalogCases(t, seed, 140)
	add := func(name string, ann Announcement, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, procCase{name: name, ann: ann})
	}
	rng := rand.New(rand.NewSource(seed))

	// n-agent: a matching-pennies core (agents 0 and 1 play hide and seek)
	// beside a bystander whose payoff ignores its own action. The honest
	// profile mixes 0 and 1 in inverse proportion to the weights; moving one
	// probability leaves agent 1's in-support strategies unequal.
	for k := 0; k < 4; k++ {
		w := [2]int64{casePay(rng), casePay(rng)}
		side := []int64{casePay(rng), casePay(rng), casePay(rng), casePay(rng)}
		g, err := game.FromFunc(fmt.Sprintf("pennies-%d", k), []int{2, 2, 2}, func(agent int, p game.Profile) *big.Rat {
			hit := int64(0)
			if p[0] == p[1] {
				hit = w[p[0]]
			}
			switch agent {
			case 0:
				return numeric.I(hit)
			case 1:
				return numeric.I(100 - hit)
			}
			return numeric.I(side[2*p[0]+p[1]])
		})
		if err != nil {
			t.Fatal(err)
		}
		x := numeric.VecOf(numeric.R(w[1], w[0]+w[1]), numeric.R(w[0], w[0]+w[1]))
		bystander := eighths(rng, []int{2})[0]
		honest := game.MixedProfile{x, x.Clone(), bystander}
		ann, err := AnnounceNAgent("inv", g, honest)
		add(fmt.Sprintf("pennies-%d/%s/honest", k, FormatNAgent), ann, err)

		moved := x.Clone()
		delta := numeric.R(1, 2*(w[0]+w[1]))
		moved.SetAt(0, numeric.Add(x.At(0), delta))
		moved.SetAt(1, numeric.Sub(x.At(1), delta))
		ann, err = AnnounceNAgent("inv", g, game.MixedProfile{moved, x.Clone(), bystander})
		add(fmt.Sprintf("pennies-%d/%s/moved-probability", k, FormatNAgent), ann, err)

		pure := game.MixedProfile{numeric.VecOfInts(1, 0), numeric.VecOfInts(1, 0), bystander}
		ann, err = AnnounceNAgent("inv", g, pure)
		add(fmt.Sprintf("pennies-%d/%s/pure-deviation", k, FormatNAgent), ann, err)

		ann, err = AnnounceNAgent("inv", g, honest)
		if err == nil {
			var spec NAgentAdviceSpec
			if err = json.Unmarshal(ann.Advice, &spec); err == nil {
				spec.Supports[2] = spec.Supports[2][:1]
				ann.Advice = mustJSON(spec)
			}
		}
		add(fmt.Sprintf("pennies-%d/%s/short-support", k, FormatNAgent), ann, err)
	}

	// P1: a degenerate game (row 0 ties across both columns), whose column
	// side is underdetermined and goes to the LP completion; with row 0
	// dominated instead, the same supports have no feasible completion.
	for k := 0; k < 3; k++ {
		v := casePay(rng)
		low := v - 1 - rng.Int63n(5)
		g := bimatrix.FromInts([][]int64{{v, v}, {low, low - 1}}, [][]int64{{v, v}, {low, low}})
		add(fmt.Sprintf("degenerate-%d/%s/honest", k, FormatP1), AnnounceP1Forged("inv", "degenerate", g, []int{0}, []int{0, 1}), nil)
		add(fmt.Sprintf("degenerate-%d/%s/off-support", k, FormatP1), AnnounceP1Forged("inv", "degenerate", g, []int{1}, []int{0, 1}), nil)
		dominated := bimatrix.FromInts([][]int64{{low, low}, {v, v}}, [][]int64{{v, v}, {low, low}})
		add(fmt.Sprintf("degenerate-%d/%s/no-completion", k, FormatP1), AnnounceP1Forged("inv", "dominated", dominated, []int{0}, []int{0, 1}), nil)
	}
	// P1 over random small games: honest supports from the prover, and
	// random supports that are mostly wrong in every way the solve can be.
	for k := 0; k < 12; k++ {
		n, m := 2+k%2, 2+(k/2)%2
		a := make([][]int64, n)
		b := make([][]int64, n)
		for i := range a {
			a[i] = make([]int64, m)
			b[i] = make([]int64, m)
			for j := range a[i] {
				a[i][j] = rng.Int63n(7) - 3
				b[i][j] = rng.Int63n(7) - 3
			}
		}
		g := bimatrix.FromInts(a, b)
		ann, err := AnnounceP1("inv", "random", g)
		add(fmt.Sprintf("random-%d/%s/honest", k, FormatP1), ann, err)
		add(fmt.Sprintf("random-%d/%s/random-supports", k, FormatP1),
			AnnounceP1Forged("inv", "random", g, randomSupport(rng, n), randomSupport(rng, m)), nil)
	}

	// Enumeration: MinNash proofs, and a proof checked against a game with
	// one payoff changed, so the checker's deviation and dominance steps
	// reject.
	for k := 0; k < 6; k++ {
		counts := [][]int{{3, 3}, {2, 2, 2}}[k%2]
		for try := 0; try < 64; try++ {
			g := payGame(rng, "enum", counts)
			ann, err := AnnounceEnumeration("inv", g, proof.MinNash)
			if err != nil {
				continue
			}
			add(fmt.Sprintf("enum-%d/%s/min-nash", k, FormatEnumeration), ann, nil)
			var advised game.Profile
			if err := json.Unmarshal(ann.Advice, &advised); err != nil {
				t.Fatal(err)
			}
			other, err := SpecFromGame(g).ToGame()
			if err != nil {
				t.Fatal(err)
			}
			agent := k % len(counts)
			other.SetPayoff(agent, advised, numeric.Sub(g.Payoff(agent, advised), numeric.I(100)))
			wrong := ann
			wrong.Game = mustJSON(SpecFromGame(other))
			add(fmt.Sprintf("enum-%d/%s/wrong-game", k, FormatEnumeration), wrong, nil)
			break
		}
	}

	// Correlated: the welfare-optimal distribution, then all its mass moved
	// to a profile some agent would leave.
	for k := 0; k < 4; k++ {
		counts := [][]int{{2, 2}, {3, 3}, {2, 2, 2}, {2, 3}}[k]
		g := payGame(rng, "corr", counts)
		ann, err := AnnounceCorrelated("inv", g)
		add(fmt.Sprintf("corr-%d/%s/honest", k, FormatCorrelated), ann, err)
		var leave game.Profile
		g.ForEachProfile(func(p game.Profile) bool {
			if !g.IsNash(p) {
				leave = p.Clone()
				return false
			}
			return true
		})
		if leave != nil {
			ann.Advice = mustJSON(CorrelatedAdviceSpec{Entries: []CorrelatedEntry{{Profile: leave, Prob: "1"}}})
			add(fmt.Sprintf("corr-%d/%s/disobeyed", k, FormatCorrelated), ann, nil)
		}
		ann.Advice = mustJSON(CorrelatedAdviceSpec{Entries: []CorrelatedEntry{{Profile: make(game.Profile, len(counts)), Prob: "1/2"}}})
		add(fmt.Sprintf("corr-%d/%s/half-mass", k, FormatCorrelated), ann, nil)
	}

	// Participation with a tolerance, and links-routing with the wrong link.
	for k := 0; k < 4; k++ {
		g, p := exactParticipation(rng, k)
		off := numeric.Add(p, numeric.R(1, 1000)).RatString()
		ann := AnnounceParticipationForged("inv", "tolerant", g, off)
		ann.Advice = mustJSON(ParticipationAdviceSpec{P: off, Tolerance: []string{"1/10", "1/100000"}[k%2]})
		add(fmt.Sprintf("tolerance-%d/%s", k, FormatParticipation), ann, nil)

		spec := routingCase(rng, k)
		ann, err := AnnounceLinksRouting("inv", spec)
		if err == nil {
			var adv LinksRoutingAdviceSpec
			if err = json.Unmarshal(ann.Advice, &adv); err == nil {
				ann.Advice = mustJSON(LinksRoutingAdviceSpec{Link: (adv.Link + 1) % len(spec.Loads)})
			}
		}
		add(fmt.Sprintf("routing-%d/%s/wrong-link", k, FormatLinksRouting), ann, err)
	}

	// Malformed inputs: an error, not a verdict.
	for _, format := range caseFormats {
		add("malformed/"+format, Announcement{Format: format, Game: json.RawMessage(`{"name":`), Advice: json.RawMessage(`{}`)}, nil)
	}
	return out
}

func randomSupport(rng *rand.Rand, n int) []int {
	var s []int
	for len(s) == 0 {
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s = append(s, i)
			}
		}
	}
	return s
}

// verdictLine runs the case's procedure and spells the outcome: the
// verdict's AppendJSON bytes, or the error text.
func verdictLine(t testing.TB, procs *ProcedureRegistry, c procCase) []byte {
	t.Helper()
	p, err := procs.Lookup(c.ann.Format)
	if err != nil {
		t.Fatal(err)
	}
	line := append([]byte(c.name), ' ')
	v, err := p.Verify(c.ann.Game, c.ann.Advice, c.ann.Proof)
	if err != nil {
		return append(append(line, "error: "...), err.Error()...)
	}
	return v.AppendJSON(line)
}

// TestProcedureVerdictsArePinned holds every bundled procedure to the
// verdict bytes it returned when the golden file was written: accepted
// values, rejection reasons and error texts, over every format with honest
// and forged advice. A rewrite of a procedure's arithmetic must leave every
// line as it is.
func TestProcedureVerdictsArePinned(t *testing.T) {
	procs := NewProcedureRegistry()
	var got bytes.Buffer
	for _, c := range pinnedCases(t, 1) {
		got.Write(verdictLine(t, procs, c))
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "verdicts.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}

// BenchmarkProcedures times each bundled procedure over the catalog-shaped
// cases (seed 1, 512 slots), one verification per op; "mix" cycles through
// all of them in catalog order, as the benchmark's core.proc_mix_us does.
//
//	go test -run '^$' -bench BenchmarkProcedures -benchmem ./internal/core/
func BenchmarkProcedures(b *testing.B) {
	procs := NewProcedureRegistry()
	cases := catalogCases(b, 1, 512)
	run := func(b *testing.B, cases []procCase) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := cases[i%len(cases)]
			p, _ := procs.Lookup(c.ann.Format)
			if _, err := p.Verify(c.ann.Game, c.ann.Advice, c.ann.Proof); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, format := range caseFormats {
		var own []procCase
		for _, c := range cases {
			if c.ann.Format == format {
				own = append(own, c)
			}
		}
		b.Run(strings.TrimSuffix(format, "/v1"), func(b *testing.B) { run(b, own) })
	}
	b.Run("mix", func(b *testing.B) { run(b, cases) })
}
