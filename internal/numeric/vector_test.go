package numeric

import (
	"testing"
	"testing/quick"
)

func TestNewVecIsZero(t *testing.T) {
	v := NewVec(4)
	if v.Len() != 4 || v.String() != "(0, 0, 0, 0)" {
		t.Fatalf("NewVec(4) = %s", v)
	}
}

func TestVecOfCopies(t *testing.T) {
	x := R(1, 2)
	v := VecOf(x)
	x.SetInt64(9)
	if v.At(0).RatString() != "1/2" {
		t.Fatal("VecOf did not copy its arguments")
	}
}

func TestVecAtCopies(t *testing.T) {
	v := VecOfInts(1, 2, 3)
	got := v.At(1)
	got.SetInt64(99)
	if v.At(1).RatString() != "2" {
		t.Fatal("At leaked internal state")
	}
}

func TestVecSetAtCopies(t *testing.T) {
	v := NewVec(1)
	x := R(1, 3)
	v.SetAt(0, x)
	x.SetInt64(7)
	if v.At(0).RatString() != "1/3" {
		t.Fatal("SetAt aliased its argument")
	}
}

func TestVecDotAndSum(t *testing.T) {
	v := VecOfInts(1, 2, 3)
	w := VecOfInts(4, 5, 6)
	if got := v.Dot(w); got.RatString() != "32" {
		t.Errorf("Dot = %s, want 32", got.RatString())
	}
	if got := v.Sum(); got.RatString() != "6" {
		t.Errorf("Sum = %s, want 6", got.RatString())
	}
}

func TestVecDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched dims did not panic")
		}
	}()
	VecOfInts(1).Dot(VecOfInts(1, 2))
}

func TestVecIsStochastic(t *testing.T) {
	if !VecOf(R(1, 4), R(3, 4)).IsStochastic() {
		t.Error("(1/4, 3/4) should be stochastic")
	}
	if VecOf(R(1, 2), R(1, 4)).IsStochastic() {
		t.Error("sums to 3/4, not stochastic")
	}
	if VecOf(R(-1, 4), R(5, 4)).IsStochastic() {
		t.Error("negative entry, not stochastic")
	}
	if VecOf(R(3, 2), Neg(R(1, 2))).IsStochastic() {
		t.Error("entry > 1, not stochastic")
	}
}

func TestVecSupport(t *testing.T) {
	v := VecOf(Zero(), R(1, 2), Zero(), R(1, 2))
	got := v.Support()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Support = %v, want [1 3]", got)
	}
	if VecOfInts(0, 0).Support() != nil {
		t.Error("zero vector should have empty support")
	}
}

func TestVecCloneIndependent(t *testing.T) {
	v := VecOfInts(1, 2)
	c := v.Clone()
	c.SetAt(0, I(9))
	if v.At(0).RatString() != "1" {
		t.Fatal("Clone shares state")
	}
}

func TestVecString(t *testing.T) {
	if got := VecOf(R(1, 2), I(3)).String(); got != "(1/2, 3)" {
		t.Errorf("String = %q", got)
	}
}

func TestVecDotCommutesProperty(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		v := VecOfInts(int64(a), int64(b))
		w := VecOfInts(int64(c), int64(d))
		return Eq(v.Dot(w), w.Dot(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
