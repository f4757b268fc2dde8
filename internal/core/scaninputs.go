package core

import (
	"encoding/json"
	"fmt"
	"math/big"
	"strconv"

	"rationality/internal/bimatrix"
	"rationality/internal/game"
	"rationality/internal/interactive"
	"rationality/internal/numeric"
	"rationality/internal/participation"
	"rationality/internal/proof"
)

// The procedures' inputs are decoded under scan.go's contract: one pass
// builds what a procedure checks — payoffs straight into the game's own
// table or the matrices bimatrix.New keeps, probabilities into vectors,
// the proof into its structs — when json.Unmarshal and the spec's
// conversion would build the identical value, and declines otherwise,
// so decodeOr falls back to them and every error text stays theirs. On
// top of scan.go's declines: members must come in the order json.Marshal
// writes them, a number bound for an int must be a plain integer, null
// is never accepted, and a rational must be plain ASCII, which
// numeric.SetRatBytes reads with no string in between. Integer lists and
// whole-number rationals are carved from the scanner's arenas, each
// capped at its own end. links-routing stays on json.Unmarshal: its
// input is a handful of integers.

// decodeOr decodes data with scan, or — when the scanner declines — into
// a spec S with json.Unmarshal, its error wrapped by the format wrap,
// converted by to.
func decodeOr[S, T any](data []byte, wrap string, scan func(*scanner) (T, bool), to func(*S) (T, error)) (T, error) {
	s := &scanner{data: data}
	if v, ok := scan(s); ok && s.end() {
		return v, nil
	}
	var spec S
	if err := json.Unmarshal(data, &spec); err != nil {
		var zero T
		return zero, fmt.Errorf(wrap, err)
	}
	return to(&spec)
}

// itself is the conversion of a spec that is already what the procedure
// checks.
func itself[T any](v *T) (T, error) { return *v, nil }

// fields walks the object under the cursor, whose keys must be drawn from
// keys in that order, each at most once, calling fn with the cursor on
// each member's value and the index of its key.
func (s *scanner) fields(keys []string, fn func(i int) bool) bool {
	next := 0
	return s.object(1, func(key []byte) bool {
		for i := next; i < len(keys); i++ {
			if string(key) == keys[i] {
				next = i + 1
				return fn(i)
			}
		}
		return false
	})
}

// intRecord walks an object whose members, in keys' order, are integer
// lists (into lists) and then integers (into ints).
func (s *scanner) intRecord(keys []string, lists []*[]int, ints ...*int) bool {
	return s.fields(keys, func(i int) bool {
		if i < len(lists) {
			return s.intsInto(lists[i])
		}
		v, ok := s.int()
		*ints[i-len(lists)] = v
		return ok
	})
}

// count returns how many elements the array under the cursor holds,
// validating them, and leaves the cursor where it was.
func (s *scanner) count() (n int, ok bool) {
	start := s.pos
	ok = s.array(1, func() bool { n++; return s.value(2) })
	s.pos = start
	return n, ok
}

// each walks the array under the cursor, which must hold exactly n
// elements, calling elem with the cursor on element i.
func (s *scanner) each(n int, elem func(i int) bool) bool {
	i := 0
	return s.array(1, func() bool {
		i++
		return i <= n && elem(i-1)
	}) && i == n
}

// list scans an array into a slice of its length, elem filling each
// element; "[]" is an empty slice, not nil, as json.Unmarshal makes it.
func list[T any](s *scanner, elem func(*T) bool) ([]T, bool) {
	n, ok := s.count()
	out := make([]T, n)
	return out, ok && s.each(n, func(i int) bool { return elem(&out[i]) })
}

// int scans a number json.Unmarshal stores in an int: no fraction, no
// exponent, in range.
func (s *scanner) int() (int, bool) {
	start := s.pos
	if !s.number() {
		return 0, false
	}
	v, err := strconv.Atoi(string(s.data[start:s.pos]))
	return v, err == nil
}

// intsInto scans an array of ints into *dst, a slice of the int arena.
func (s *scanner) intsInto(dst *[]int) bool {
	if s.ints == nil {
		s.ints = make([]int, 0, 64) // non-nil, so "[]" is empty, not nil
	}
	start := len(s.ints)
	ok := s.array(1, func() bool {
		v, ok := s.int()
		s.ints = append(s.ints, v)
		return ok
	})
	*dst = s.ints[start:len(s.ints):len(s.ints)]
	return ok
}

// reserve makes room for n more words in the word arena. A fresh arena
// leaves the old one to the Rats already holding words in it.
func (s *scanner) reserve(n int) {
	if cap(s.words)-len(s.words) < n {
		s.words = make([]big.Word, 0, max(n, 32))
	}
}

// rat scans a rational string into z, a zero Rat, taking its
// whole-number storage from the word arena.
func (s *scanner) rat(z *big.Rat) bool {
	body, plain, ok := s.str()
	if !ok || !plain {
		return false
	}
	s.reserve(1)
	n := len(s.words) + 1
	s.words = s.words[:n]
	return numeric.SetRatBytes(z, body, s.words[n-1:n:n])
}

// rats scans an array of exactly len(dst) rational strings into dst.
func (s *scanner) rats(dst []big.Rat) bool {
	s.reserve(len(dst))
	return s.each(len(dst), func(i int) bool { return s.rat(&dst[i]) })
}

// vec scans an array of rational strings into a vector, as ToVec reads one.
func (s *scanner) vec(v **numeric.Vec) bool {
	n, ok := s.count()
	vals := make([]big.Rat, n)
	*v = numeric.VecOver(vals)
	return ok && s.rats(vals)
}

// matrix scans a non-empty rectangular array of rational strings, as
// stringsToMatrix reads one.
func (s *scanner) matrix(m **numeric.Matrix) bool {
	at := s.pos
	rows, ok := s.count()
	if !ok || rows == 0 {
		return false
	}
	s.pos++ // into the array, onto its first row
	s.ws()
	cols, ok := s.count()
	s.pos = at
	vals := make([]big.Rat, rows*cols)
	*m = numeric.MatrixOver(rows, cols, vals)
	s.reserve(len(vals))
	return ok && cols > 0 && s.each(rows, func(i int) bool { return s.rats(vals[i*cols : (i+1)*cols]) })
}

// game scans a GameSpec into the game ToGame builds.
func (s *scanner) game() (g *game.Game, ok bool) {
	var name []byte
	var counts []int
	ok = s.fields([]string{"name", "strategyCounts", "payoffs"}, func(i int) (ok bool) {
		switch i {
		case 0:
			var plain bool
			name, plain, ok = s.str()
			return ok && plain // the bytes are the name
		case 1:
			return s.intsInto(&counts)
		}
		var err error
		if g, err = game.New(string(name), counts); err != nil {
			return false
		}
		table, np := g.Table(), g.NumProfiles()
		s.reserve(len(table))
		return s.each(g.NumAgents(), func(i int) bool { return s.rats(table[i*np : (i+1)*np]) })
	})
	return g, ok && g != nil
}

// bimatrix scans a BimatrixSpec into the game ToBimatrix builds.
func (s *scanner) bimatrix() (*bimatrix.Game, bool) {
	var m [2]*numeric.Matrix
	if !s.fields([]string{"name", "a", "b"}, func(i int) bool {
		if i == 0 {
			_, _, ok := s.str() // the name is not kept
			return ok
		}
		return s.matrix(&m[i-1])
	}) || m[0] == nil || m[1] == nil {
		return nil, false
	}
	g, err := bimatrix.New(m[0], m[1])
	return g, err == nil
}

// participation scans a ParticipationSpec into the game ToParticipation
// builds.
func (s *scanner) participation() (*participation.Game, bool) {
	var nk [2]int
	var vc [2]big.Rat
	rats := 0
	if !s.fields([]string{"name", "n", "k", "v", "c"}, func(i int) (ok bool) {
		switch i {
		case 0:
			_, _, ok = s.str() // the name is not kept
		case 1, 2:
			nk[i-1], ok = s.int()
		default:
			rats++
			ok = s.rat(&vc[i-3])
		}
		return ok
	}) || rats != 2 {
		return nil, false
	}
	g, err := participation.New(nk[0], nk[1], &vc[0], &vc[1])
	return g, err == nil
}

// participationAdvice scans a ParticipationAdviceSpec into p and, when
// there is one, the tolerance.
func (s *scanner) participationAdvice() (pt [2]*big.Rat, ok bool) {
	ok = s.fields([]string{"p", "tolerance"}, func(i int) bool {
		pt[i] = new(big.Rat)
		return s.rat(pt[i])
	})
	return pt, ok && pt[0] != nil
}

// The results below are named and assigned before they are returned: a
// result list that reads a variable a call in the same list fills leaves
// the order of the two to the compiler.

func (s *scanner) profile() (p game.Profile, ok bool) {
	ok = s.intsInto((*[]int)(&p))
	return p, ok
}

func (s *scanner) p1Advice() (a interactive.P1Advice, ok bool) {
	ok = s.intRecord([]string{"rowSupport", "colSupport", "rows", "cols"},
		[]*[]int{&a.RowSupport, &a.ColSupport}, &a.Rows, &a.Cols)
	return a, ok
}

func (s *scanner) lastMoverAdvice() (a LastMoverAdviceSpec, ok bool) {
	ok = s.fields([]string{"decisions"}, func(int) (ok bool) {
		a.Decisions, ok = list(s, func(d *bool) bool {
			*d = s.literal("true")
			return *d || s.literal("false")
		})
		return ok
	})
	return a, ok
}

func (s *scanner) nAgentAdvice() (a *interactive.NAgentAdvice, ok bool) {
	a = &interactive.NAgentAdvice{Probs: game.MixedProfile{}}
	ok = s.fields([]string{"supports", "probs"}, func(i int) (ok bool) {
		if i == 0 {
			a.Supports, ok = list(s, s.intsInto)
		} else {
			a.Probs, ok = list(s, s.vec)
		}
		return ok
	})
	return a, ok
}

// correlated scans a CorrelatedAdviceSpec into the entries
// CorrelatedAdviceSpec.entries makes of it. An entry with no probability
// is the empty string, which does not parse.
func (s *scanner) correlated() (entries map[string]*big.Rat, ok bool) {
	entries = map[string]*big.Rat{}
	ok = s.fields([]string{"entries"}, func(int) bool {
		n, ok := s.count()
		probs := make([]big.Rat, n)
		return ok && s.each(n, func(i int) bool {
			var p []int
			rated := false
			ok := s.fields([]string{"profile", "prob"}, func(k int) bool {
				if k == 0 {
					return s.intsInto(&p)
				}
				rated = true
				return s.rat(&probs[i])
			})
			entries[game.Profile(p).String()] = &probs[i]
			return ok && rated
		})
	})
	return entries, ok
}

// proof scans an enumeration proof.Proof.
func (s *scanner) proof() (pf proof.Proof, ok bool) {
	profile := func(p *game.Profile) bool { return s.intsInto((*[]int)(p)) }
	ok = s.fields([]string{"mode", "advised", "equilibria", "nonEquilibria", "maxWitnesses"}, func(i int) (ok bool) {
		switch i {
		case 0:
			var mode int
			mode, ok = s.int()
			pf.Mode = proof.Mode(mode)
		case 1:
			ok = profile(&pf.Advised)
		case 2:
			pf.Equilibria, ok = list(s, profile)
		case 3:
			pf.NonEquilibria, ok = list(s, func(c *proof.Counterexample) bool {
				return s.intRecord([]string{"profile", "agent", "strategy"},
					[]*[]int{(*[]int)(&c.Profile)}, &c.Agent, &c.Strategy)
			})
		default:
			pf.MaxWitnesses, ok = list(s, func(w *proof.MaxWitness) bool {
				return s.intRecord([]string{"equilibrium", "kind", "agentFavoringOther", "agentFavoringAdvised"},
					[]*[]int{(*[]int)(&w.Equilibrium)}, (*int)(&w.Kind), &w.AgentFavoringOther, &w.AgentFavoringAdvised)
			})
		}
		return ok
	})
	return pf, ok
}
