package game

import (
	"math/rand"
	"testing"

	"rationality/internal/numeric"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("empty", nil); err == nil {
		t.Error("zero agents accepted")
	}
	if _, err := New("bad", []int{2, 0}); err == nil {
		t.Error("zero strategies accepted")
	}
	if _, err := New("huge", []int{1 << 15, 1 << 15}); err == nil {
		t.Error("oversized profile space accepted")
	}
}

func TestGameShape(t *testing.T) {
	g := MustNew("g", []int{2, 3, 4})
	if g.NumAgents() != 3 {
		t.Errorf("NumAgents = %d", g.NumAgents())
	}
	if g.NumProfiles() != 24 {
		t.Errorf("NumProfiles = %d", g.NumProfiles())
	}
	if g.NumStrategies(1) != 3 {
		t.Errorf("NumStrategies(1) = %d", g.NumStrategies(1))
	}
	counts := g.StrategyCounts()
	counts[0] = 99
	if g.NumStrategies(0) != 2 {
		t.Error("StrategyCounts leaked internal state")
	}
	if g.Name() != "g" {
		t.Errorf("Name = %q", g.Name())
	}
}

func TestPayoffRoundTrip(t *testing.T) {
	g := MustNew("g", []int{2, 2})
	p := Profile{1, 0}
	g.SetPayoff(0, p, numeric.R(7, 3))
	if got := g.Payoff(0, p); got.RatString() != "7/3" {
		t.Errorf("Payoff = %s", got.RatString())
	}
	// Unset payoffs default to zero.
	if got := g.Payoff(1, Profile{0, 0}); got.Sign() != 0 {
		t.Errorf("default payoff = %s", got.RatString())
	}
}

func TestPayoffCopies(t *testing.T) {
	g := MustNew("g", []int{2, 2})
	v := numeric.I(5)
	p := Profile{0, 0}
	g.SetPayoff(0, p, v)
	v.SetInt64(0)
	if g.Payoff(0, p).RatString() != "5" {
		t.Error("SetPayoff aliased its argument")
	}
	got := g.Payoff(0, p)
	got.SetInt64(0)
	if g.Payoff(0, p).RatString() != "5" {
		t.Error("Payoff leaked internal state")
	}
}

func TestSetPayoffs(t *testing.T) {
	g := MustNew("g", []int{2, 2})
	g.SetPayoffs(Profile{0, 1}, numeric.I(3), numeric.I(4))
	if g.Payoff(0, Profile{0, 1}).RatString() != "3" || g.Payoff(1, Profile{0, 1}).RatString() != "4" {
		t.Error("SetPayoffs wrote wrong values")
	}
}

func TestInvalidProfilePanics(t *testing.T) {
	g := MustNew("g", []int{2, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("Payoff on invalid profile did not panic")
		}
	}()
	g.Payoff(0, Profile{0, 5})
}

func TestValidProfile(t *testing.T) {
	g := MustNew("g", []int{2, 3})
	cases := []struct {
		p    Profile
		want bool
	}{
		{Profile{0, 0}, true},
		{Profile{1, 2}, true},
		{Profile{2, 0}, false},
		{Profile{0, 3}, false},
		{Profile{-1, 0}, false},
		{Profile{0}, false},
		{Profile{0, 0, 0}, false},
	}
	for _, c := range cases {
		if got := g.ValidProfile(c.p); got != c.want {
			t.Errorf("ValidProfile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestProfilesEnumeration(t *testing.T) {
	g := MustNew("g", []int{2, 3})
	ps := allProfiles(g)
	if len(ps) != 6 {
		t.Fatalf("len(Profiles) = %d", len(ps))
	}
	if !ps[0].Equal(Profile{0, 0}) || !ps[5].Equal(Profile{1, 2}) {
		t.Errorf("unexpected order: first=%v last=%v", ps[0], ps[5])
	}
	// All distinct.
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.String()] {
			t.Fatalf("duplicate profile %v", p)
		}
		seen[p.String()] = true
	}
}

func TestForEachProfileEarlyStop(t *testing.T) {
	g := MustNew("g", []int{2, 2})
	count := 0
	g.ForEachProfile(func(p Profile) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("visited %d profiles, want 2", count)
	}
}

func TestProfileChange(t *testing.T) {
	p := Profile{0, 1, 2}
	q := p.Change(1, 5)
	if !q.Equal(Profile{0, 5, 2}) {
		t.Errorf("Change = %v", q)
	}
	if !p.Equal(Profile{0, 1, 2}) {
		t.Error("Change mutated the receiver")
	}
}

func TestProfileChangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Change with bad agent did not panic")
		}
	}()
	Profile{0}.Change(3, 0)
}

func TestProfileEqual(t *testing.T) {
	if !(Profile{1, 2}).Equal(Profile{1, 2}) {
		t.Error("equal profiles reported unequal")
	}
	if (Profile{1, 2}).Equal(Profile{1, 3}) || (Profile{1}).Equal(Profile{1, 2}) {
		t.Error("unequal profiles reported equal")
	}
}

func TestProfileString(t *testing.T) {
	if got := (Profile{1, 0, 2}).String(); got != "[1 0 2]" {
		t.Errorf("String = %q", got)
	}
}

func TestFromFunc(t *testing.T) {
	g, err := FromFunc("sum", []int{2, 2}, func(agent int, p Profile) *numeric.Rat {
		return numeric.I(int64(p[0] + p[1] + agent))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Payoff(1, Profile{1, 1}); got.RatString() != "3" {
		t.Errorf("payoff = %s", got.RatString())
	}
}

func TestRandomGameDeterministic(t *testing.T) {
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	g1 := RandomGame("r", []int{2, 2}, 10, r1.Int63n)
	g2 := RandomGame("r", []int{2, 2}, 10, r2.Int63n)
	for _, p := range allProfiles(g1) {
		for i := 0; i < 2; i++ {
			if !numeric.Eq(g1.Payoff(i, p), g2.Payoff(i, p)) {
				t.Fatal("same seed produced different games")
			}
		}
	}
}
