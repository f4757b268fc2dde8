package core

import (
	"fmt"
	"sync/atomic"

	"rationality/internal/game"
	"rationality/internal/interactive"
	"rationality/internal/numeric"
	"rationality/internal/participation"
)

// The P1, n-agent, participation and correlated procedures check on
// machine words first. Their inputs are scanned as scaninputs.go scans
// them, but every rational into a numeric.Q, and the kernels — the same
// generic code the big.Rat path runs — check them under numeric.Fits.
// When the scanner declines, an operation overflows, or the case leaves
// the words (a degenerate P1 system, a game New would refuse), the whole
// verification reruns on big.Rat from the raw inputs, so each verdict
// comes from exactly one path. Enumeration, last-mover and links-routing
// stay on big.Rat.

// wordFallbacks counts the verifications the word path handed to big.Rat.
var wordFallbacks atomic.Int64

// forceRats, set only by tests, sends every verification to big.Rat.
var forceRats bool

// onWords runs a procedure's word path, reporting false, counted, when the
// verification must rerun on big.Rat.
func onWords(check func() (*Verdict, bool)) (v *Verdict, ok bool) {
	if forceRats {
		return nil, false
	}
	if !numeric.Fits(func() { v, ok = check() }) || !ok {
		wordFallbacks.Add(1)
		return nil, false
	}
	return v, true
}

// scanBoth scans a game spec and an advice, each whole.
func scanBoth[G, A any](gameSpec, advice []byte, sg func(*scanner) (G, bool), sa func(*scanner) (A, bool)) (g G, a A, ok bool) {
	s := &scanner{data: gameSpec}
	if g, ok = sg(s); !ok || !s.end() {
		return g, a, false
	}
	s = &scanner{data: advice}
	a, ok = sa(s)
	return g, a, ok && s.end()
}

// q scans a rational string into z in machine words.
func (s *scanner) q(z *numeric.Q) bool {
	body, plain, ok := s.str()
	if !ok || !plain {
		return false
	}
	*z, ok = numeric.ParseQ(body)
	return ok
}

// qs scans an array of exactly len(dst) rational strings into dst.
func (s *scanner) qs(dst []numeric.Q) bool {
	return s.each(len(dst), func(i int) bool { return s.q(&dst[i]) })
}

// qvec scans an array of rational strings.
func (s *scanner) qvec(v *[]numeric.Q) (ok bool) {
	*v, ok = list(s, s.q)
	return ok
}

// qmatrix is matrix on machine words: the elements row-major, and the
// shape.
func (s *scanner) qmatrix() (vals []numeric.Q, rows, cols int, ok bool) {
	rows, cols, ok = s.grid()
	vals = make([]numeric.Q, rows*cols)
	ok = ok && s.each(rows, func(i int) bool { return s.qs(vals[i*cols : (i+1)*cols]) })
	return vals, rows, cols, ok
}

// gameWords scans a GameSpec into a game on machine words.
func (s *scanner) gameWords() (g *game.Words, ok bool) {
	var counts []int
	ok = s.fields([]string{"name", "strategyCounts", "payoffs"}, func(i int) (ok bool) {
		switch i {
		case 0:
			_, plain, ok := s.str()
			return ok && plain
		case 1:
			return s.intsInto(&counts)
		}
		var err error
		if g, err = game.NewWords(counts); err != nil {
			return false
		}
		table, np := g.Table(), g.NumProfiles()
		return s.each(g.NumAgents(), func(i int) bool { return s.qs(table[i*np : (i+1)*np]) })
	})
	return g, ok && g != nil
}

// bimatrixWords is a BimatrixSpec on machine words: both matrices, of one
// non-empty shape, row-major.
type bimatrixWords struct {
	a, b       []numeric.Q
	rows, cols int
}

func (s *scanner) bimatrixWords() (g bimatrixWords, ok bool) {
	var bRows, bCols int
	ok = s.fields([]string{"name", "a", "b"}, func(i int) (ok bool) {
		switch i {
		case 0:
			_, _, ok = s.str()
		case 1:
			g.a, g.rows, g.cols, ok = s.qmatrix()
		default:
			g.b, bRows, bCols, ok = s.qmatrix()
		}
		return ok
	})
	return g, ok && g.a != nil && g.b != nil && g.rows == bRows && g.cols == bCols
}

func p1Words(gameSpec, advice []byte) (*Verdict, bool) {
	g, adv, ok := scanBoth(gameSpec, advice, (*scanner).bimatrixWords, (*scanner).p1Advice)
	if !ok {
		return nil, false
	}
	eq, err := interactive.VerifyP1Words(g.a, g.b, g.rows, g.cols, &adv)
	if err != nil {
		return p1Verdict[numeric.Q](&adv, nil, nil, nil, nil, err), true
	}
	return p1Verdict(&adv, eq.X, eq.Y, &eq.LambdaRow, &eq.LambdaCol, nil), true
}

// p1Verdict spells P1's verdict over any Field.
func p1Verdict[T any, P numeric.Field[T]](adv *interactive.P1Advice, x, y []T, lambdaRow, lambdaCol *T, err error) *Verdict {
	verdict := &Verdict{Format: FormatP1, Details: map[string]string{
		"bitsOnWire": fmt.Sprint(adv.BitsOnWire()),
	}}
	if err != nil {
		verdict.Reason = err.Error()
		return verdict
	}
	verdict.Accepted = true
	verdict.Details["lambdaRow"] = P(lambdaRow).RatString()
	verdict.Details["lambdaCol"] = P(lambdaCol).RatString()
	verdict.Details["x"] = numeric.JoinRats[T, P](x)
	verdict.Details["y"] = numeric.JoinRats[T, P](y)
	return verdict
}

// nAgentWords is an NAgentAdviceSpec on machine words.
type nAgentWords struct {
	supports [][]int
	probs    [][]numeric.Q
}

func (s *scanner) nAgentWords() (a nAgentWords, ok bool) {
	ok = s.fields([]string{"supports", "probs"}, func(i int) (ok bool) {
		if i == 0 {
			a.supports, ok = list(s, s.intsInto)
		} else {
			a.probs, ok = list(s, s.qvec)
		}
		return ok
	})
	return a, ok
}

func nAgentWordsVerify(gameSpec, advice []byte) (*Verdict, bool) {
	g, adv, ok := scanBoth(gameSpec, advice, (*scanner).gameWords, (*scanner).nAgentWords)
	if !ok {
		return nil, false
	}
	values, err := interactive.VerifyNAgentWords(g, adv.supports, adv.probs)
	return valuesVerdict(FormatNAgent, values, err), true
}

// valuesVerdict spells a verdict whose details are the agents' values,
// over any Field.
func valuesVerdict[T any, P numeric.Field[T]](format string, values []T, err error) *Verdict {
	verdict := &Verdict{Format: format, Details: map[string]string{}}
	if err != nil {
		verdict.Reason = err.Error()
		return verdict
	}
	verdict.Accepted = true
	for i := range values {
		verdict.Details[fmt.Sprintf("value[%d]", i)] = P(&values[i]).RatString()
	}
	return verdict
}

// correlatedWords scans a CorrelatedAdviceSpec into probabilities indexed
// by g's profiles, declining a profile outside g or named twice.
func (s *scanner) correlatedWords(g *game.Words) (probs []numeric.Q, ok bool) {
	probs = make([]numeric.Q, g.NumProfiles())
	seen := make([]bool, len(probs))
	ok = s.fields([]string{"entries"}, func(int) bool {
		n, ok := s.count()
		return ok && s.each(n, func(int) bool {
			var p []int
			var prob numeric.Q
			rated := false
			ok := s.fields([]string{"profile", "prob"}, func(k int) bool {
				if k == 0 {
					return s.intsInto(&p)
				}
				rated = true
				return s.q(&prob)
			})
			idx, valid := g.Index(p)
			if !ok || !rated || !valid || seen[idx] {
				return false
			}
			probs[idx], seen[idx] = prob, true
			return true
		})
	})
	return probs, ok
}

func correlatedWordsVerify(gameSpec, advice []byte) (*Verdict, bool) {
	s := &scanner{data: gameSpec}
	g, ok := s.gameWords()
	if !ok || !s.end() {
		return nil, false
	}
	s = &scanner{data: advice}
	probs, ok := s.correlatedWords(g)
	if !ok || !s.end() {
		return nil, false
	}
	if err := game.CheckDistribution(probs); err != nil {
		return &Verdict{Format: FormatCorrelated, Reason: err.Error(), Details: map[string]string{}}, true
	}
	if !g.IsCorrelatedEquilibrium(probs) {
		return valuesVerdict[numeric.Q](FormatCorrelated, nil, errDisobeyed), true
	}
	values := make([]numeric.Q, g.NumAgents())
	for i := range values {
		values[i] = g.ExpectedPayoffCorrelated(i, probs)
	}
	return valuesVerdict(FormatCorrelated, values, nil), true
}

// participationWords is a ParticipationSpec on machine words.
type participationWords struct {
	n, k int
	vc   [2]numeric.Q
}

func (s *scanner) participationWords() (g participationWords, ok bool) {
	rats := 0
	ok = s.fields([]string{"name", "n", "k", "v", "c"}, func(i int) (ok bool) {
		switch i {
		case 0:
			_, _, ok = s.str()
		case 1:
			g.n, ok = s.int()
		case 2:
			g.k, ok = s.int()
		default:
			rats++
			ok = s.q(&g.vc[i-3])
		}
		return ok
	})
	return g, ok && rats == 2
}

func (s *scanner) participationAdviceWords() ([2]*numeric.Q, bool) { return ratPair(s, s.q) }

func participationWordsVerify(gameSpec, advice []byte) (*Verdict, bool) {
	g, pt, ok := scanBoth(gameSpec, advice, (*scanner).participationWords, (*scanner).participationAdviceWords)
	if !ok {
		return nil, false
	}
	gap, gain, err := participation.VerifyWords(g.n, g.k, &g.vc[0], &g.vc[1], pt[0], pt[1])
	return participationVerdict(pt[0], pt[1] != nil, &gap, &gain, err), true
}

// participationVerdict spells the participation verdict over any Field.
func participationVerdict[T any, P numeric.Field[T]](p *T, tolerant bool, gap, gain *T, err error) *Verdict {
	verdict := &Verdict{Format: FormatParticipation, Details: map[string]string{
		"p": P(p).RatString(),
	}}
	if err != nil {
		verdict.Reason = err.Error()
		return verdict
	}
	verdict.Accepted = true
	if tolerant {
		verdict.Details["indifferenceGap"] = P(gap).RatString()
	}
	verdict.Details["expectedGain"] = P(gain).RatString()
	return verdict
}
