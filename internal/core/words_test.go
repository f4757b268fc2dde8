package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"regexp"
	"strings"
	"testing"
)

// wordFormats are the formats with a machine-word path.
var wordFormats = map[string]bool{FormatP1: true, FormatNAgent: true, FormatParticipation: true, FormatCorrelated: true}

// bothPaths spells a case's outcome as the procedure gives it — on machine
// words unless it falls back — and forced onto big.Rat, and reports whether
// the first run fell back.
func bothPaths(t testing.TB, procs *ProcedureRegistry, c procCase) (words, rats []byte, fellBack bool) {
	t.Helper()
	before := wordFallbacks.Load()
	words = verdictLine(t, procs, c)
	fellBack = wordFallbacks.Load() != before
	forceRats = true
	defer func() { forceRats = false }()
	return words, verdictLine(t, procs, c), fellBack
}

// ratString matches a JSON string holding a rational in the word grammar.
var ratString = regexp.MustCompile(`"-?[0-9]+(/[0-9]+)?"`)

// rewriteRationals replaces the rational strings of data that pick
// selects (by index) with what with makes of their value.
func rewriteRationals(data []byte, pick func(i int) bool, with func(*big.Rat) *big.Rat) []byte {
	i := -1
	return ratString.ReplaceAllFunc(data, func(m []byte) []byte {
		i++
		r, ok := new(big.Rat).SetString(string(m[1 : len(m)-1]))
		if !ok || !pick(i) {
			return m
		}
		return []byte(`"` + with(r).RatString() + `"`)
	})
}

func wordCases(t testing.TB) []procCase {
	var out []procCase
	for _, c := range pinnedCases(t, 1) {
		if wordFormats[c.ann.Format] {
			out = append(out, c)
		}
	}
	return out
}

// TestWordPathMatchesRats holds the machine-word path to the big.Rat path
// on every pinned case of the four formats that have one, and on the same
// cases with every payoff scaled near 2³¹, 2⁶³ and 2¹²⁷: the outcomes are
// byte-identical, values near 2⁶³ and 2¹²⁷ always fall back (counted), and
// values near 2³¹ overflow some P1 system.
func TestWordPathMatchesRats(t *testing.T) {
	procs := NewProcedureRegistry()
	cases := wordCases(t)
	for _, scale := range []int{0, 31, 63, 127} {
		fell := 0
		for _, c := range cases {
			if scale > 0 {
				f := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(scale)))
				f.Add(f, big.NewRat(1, 1))
				c.ann.Game = rewriteRationals(c.ann.Game, func(int) bool { return true },
					func(r *big.Rat) *big.Rat { return r.Mul(r, f) })
			}
			words, rats, fellBack := bothPaths(t, procs, c)
			if !bytes.Equal(words, rats) {
				t.Errorf("scale 2^%d: the paths disagree:\nwords %s\n rats %s", scale, words, rats)
			}
			if fellBack {
				fell++
			}
			if scale >= 63 && !fellBack && !strings.HasPrefix(c.name, "malformed") {
				t.Errorf("scale 2^%d: %s stayed on machine words", scale, c.name)
			}
		}
		t.Logf("scale 2^%d: %d of %d cases fell back", scale, fell, len(cases))
		if scale == 31 && fell == 0 {
			t.Errorf("scale 2^31: no case fell back")
		}
	}
}

// FuzzSmallRationalPath rewrites one rational of a pinned case — a game's
// payoff or an advice's probability — into a fuzzed fraction, or a value
// near 2³¹, 2⁶³ or 2¹²⁷, and requires the machine-word path and the
// big.Rat path to give byte-identical verdicts or the same error. A value
// past 18 digits must fall back.
//
//	go test -run '^$' -fuzz FuzzSmallRationalPath -fuzztime 20s ./internal/core/
func FuzzSmallRationalPath(f *testing.F) {
	procs := NewProcedureRegistry()
	cases := wordCases(f)
	for mode := uint8(0); mode < 4; mode++ {
		f.Add(uint16(mode*7), uint16(mode), int64(3), int64(8), mode)
	}
	f.Fuzz(func(t *testing.T, idx, k uint16, num, den int64, mode uint8) {
		c := cases[int(idx)%len(cases)]
		var v *big.Rat
		switch mode % 4 {
		case 0:
			if den == 0 {
				den = 1
			}
			v = big.NewRat(num, den)
		default:
			v = new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint([]int{31, 63, 127}[mode%4-1])))
			v.Add(v, big.NewRat(num%1000, 1))
			if mode&4 != 0 {
				v.Neg(v)
			}
		}
		total := len(ratString.FindAll(c.ann.Game, -1))
		replaced := false
		pick := func(i int) bool {
			if i == int(k)%max(total, 1) {
				replaced = true
				return true
			}
			return false
		}
		with := func(*big.Rat) *big.Rat { return v }
		if k&0x8000 == 0 || total == 0 {
			c.ann.Game = rewriteRationals(c.ann.Game, pick, with)
		} else {
			c.ann.Advice = rewriteRationals(c.ann.Advice, pick, with)
		}
		words, rats, fellBack := bothPaths(t, procs, c)
		if !bytes.Equal(words, rats) {
			t.Fatalf("%s with %s: the paths disagree:\nwords %s\n rats %s", c.name, v.RatString(), words, rats)
		}
		if replaced && mode%4 >= 2 && !fellBack {
			t.Fatalf("%s with %s: a value past 18 digits stayed on machine words", c.name, v.RatString())
		}
	})
}

// TestPositiveAffineKeepsPolarity checks a metamorphic relation, the soundness
// argument of the machine-word path: mapping one player's payoffs by
// a·u + b with a > 0 changes no best response, so no verdict's polarity.
// Honest and forged announcements alike keep their advice, which the map
// leaves valid or invalid as it was. It holds for p1-supports, n-agent,
// correlated and enumeration-nash. It does not apply to participation and
// participation-online, whose payoffs are fixed by v and c (only a common
// positive scaling of both is an equivalent game, and a tolerance is not
// scale-free), nor to links-routing, whose loads are not utilities. An a
// of 2⁴⁰ takes P1's systems off machine words.
func TestPositiveAffineKeepsPolarity(t *testing.T) {
	procs := NewProcedureRegistry()
	relations := []struct{ a, b *big.Rat }{
		{big.NewRat(3, 1), big.NewRat(-7, 1)},
		{big.NewRat(1, 3), big.NewRat(5, 2)},
		{new(big.Rat).SetInt64(1<<40 + 1), big.NewRat(11, 1)},
	}
	var baseline int64 // fallbacks under the first map: degenerate and malformed cases
	for n, rel := range relations {
		affine := func(u string) string {
			r, ok := new(big.Rat).SetString(u)
			if !ok {
				t.Fatalf("payoff %q", u)
			}
			return r.Add(r.Mul(r, rel.a), rel.b).RatString()
		}
		before := wordFallbacks.Load()
		checked := 0
		for _, c := range pinnedCases(t, 1) {
			var game json.RawMessage
			switch c.ann.Format {
			case FormatP1:
				var spec BimatrixSpec
				if json.Unmarshal(c.ann.Game, &spec) != nil {
					continue
				}
				for _, row := range spec.A {
					for j := range row {
						row[j] = affine(row[j])
					}
				}
				game = mustJSON(spec)
			case FormatNAgent, FormatCorrelated, FormatEnumeration:
				var spec GameSpec
				if json.Unmarshal(c.ann.Game, &spec) != nil {
					continue
				}
				player := len(spec.Payoffs) - 1
				for j := range spec.Payoffs[player] {
					spec.Payoffs[player][j] = affine(spec.Payoffs[player][j])
				}
				game = mustJSON(spec)
			default:
				continue
			}
			p, _ := procs.Lookup(c.ann.Format)
			want, err := p.Verify(c.ann.Game, c.ann.Advice, c.ann.Proof)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got, err := p.Verify(game, c.ann.Advice, c.ann.Proof)
			if err != nil {
				t.Fatalf("%s mapped by %s·u + %s: %v", c.name, rel.a.RatString(), rel.b.RatString(), err)
			}
			if got.Accepted != want.Accepted {
				t.Errorf("%s mapped by %s·u + %s: accepted=%v, before the map %v (%s)",
					c.name, rel.a.RatString(), rel.b.RatString(), got.Accepted, want.Accepted, got.Reason)
			}
			checked++
		}
		fell := wordFallbacks.Load() - before
		t.Logf("a=%s b=%s: %d cases, %d fallbacks", rel.a.RatString(), rel.b.RatString(), checked, fell)
		if n == 0 {
			baseline = fell
		}
		if rel.a.Num().BitLen() > 40 && fell <= baseline {
			t.Errorf("a=%s: %d fallbacks, no more than the first map's %d", rel.a.RatString(), fell, baseline)
		}
	}
}

// TestWordFallbackIsCounted runs a P1 case whose Bareiss minors overflow
// int64 and one whose payoff does not parse into a word: each moves the
// counter once and is verified on big.Rat.
func TestWordFallbackIsCounted(t *testing.T) {
	procs := NewProcedureRegistry()
	huge := `"` + strings.Repeat("9", 17) + `"`
	for _, tc := range []struct {
		game, support string
		n             int
	}{
		{fmt.Sprintf(`{"name":"g","a":[[%[1]s,"0","0"],["0",%[1]s,"0"],["0","0",%[1]s]],"b":[["-1","0","0"],["0","-1","0"],["0","0","-1"]]}`, huge), "0,1,2", 3},
		{`{"name":"g","a":[["0.5","0"],["0","1"]],"b":[["-1","0"],["0","-1"]]}`, "0,1", 2},
	} {
		game := tc.game
		advice := fmt.Sprintf(`{"rowSupport":[%s],"colSupport":[%s],"rows":%d,"cols":%d}`, tc.support, tc.support, tc.n, tc.n)
		c := procCase{name: "overflow", ann: Announcement{Format: FormatP1, Game: json.RawMessage(game), Advice: json.RawMessage(advice)}}
		words, rats, fellBack := bothPaths(t, procs, c)
		if !fellBack || !bytes.Equal(words, rats) {
			t.Errorf("%s: fell back %v\nwords %s\n rats %s", game, fellBack, words, rats)
		}
	}
}
