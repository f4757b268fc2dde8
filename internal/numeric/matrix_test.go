package numeric

import (
	"testing"
	"testing/quick"
)

func TestMatrixShapeAndAccess(t *testing.T) {
	m := MatrixOfInts([][]int64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(1, 2).RatString() != "6" {
		t.Fatalf("At(1,2) = %s", m.At(1, 2).RatString())
	}
	m.SetAt(0, 0, R(1, 2))
	if m.At(0, 0).RatString() != "1/2" {
		t.Fatal("SetAt failed")
	}
}

func TestMatrixAtCopies(t *testing.T) {
	m := MatrixOfInts([][]int64{{7}})
	got := m.At(0, 0)
	got.SetInt64(0)
	if m.At(0, 0).RatString() != "7" {
		t.Fatal("At leaked internal state")
	}
}

func TestMatrixIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	NewMatrix(1, 1).At(1, 0)
}

func TestMatrixMulVec(t *testing.T) {
	m := MatrixOfInts([][]int64{{1, 2}, {3, 4}})
	got := m.MulVec(VecOfInts(5, 6))
	if got.String() != "(17, 39)" {
		t.Errorf("MulVec = %s", got)
	}
}

func TestMatrixVecMul(t *testing.T) {
	m := MatrixOfInts([][]int64{{1, 2}, {3, 4}})
	got := m.VecMul(VecOfInts(5, 6))
	if got.String() != "(23, 34)" {
		t.Errorf("VecMul = %s", got)
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := MatrixOfInts([][]int64{{1}})
	c := m.Clone()
	c.SetAt(0, 0, I(9))
	if m.At(0, 0).RatString() != "1" {
		t.Fatal("Clone shares state")
	}
}

func TestRaggedLiteralPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged literal did not panic")
		}
	}()
	MatrixOfInts([][]int64{{1, 2}, {3}})
}

// MulVec distributes over vector addition.
func TestMulVecDistributesProperty(t *testing.T) {
	f := func(a, b, c, d, x1, x2, y1, y2 int8) bool {
		m := MatrixOfInts([][]int64{{int64(a), int64(b)}, {int64(c), int64(d)}})
		x := VecOfInts(int64(x1), int64(x2))
		y := VecOfInts(int64(y1), int64(y2))
		sum := m.MulVec(VecOfInts(int64(x1)+int64(y1), int64(x2)+int64(y2)))
		mx, my := m.MulVec(x), m.MulVec(y)
		for i := 0; i < 2; i++ {
			if !Eq(sum.At(i), Add(mx.At(i), my.At(i))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
