package numeric

import (
	"math/big"
	"strings"
)

// Vec is a dense vector of rationals. The zero value is an empty vector.
// Elements are owned by the vector; accessors copy on read and write so that
// callers never share *big.Rat state with the vector by accident.
type Vec struct {
	elems []big.Rat
}

// NewVec returns a zero vector of dimension n.
func NewVec(n int) *Vec {
	if n < 0 {
		panic("numeric: negative vector dimension")
	}
	return VecOver(make([]big.Rat, n)) // one allocation for every element
}

// VecOver returns the vector whose elements are vals themselves: the
// vector keeps vals, which the caller must not use afterwards.
func VecOver(vals []big.Rat) *Vec { return &Vec{elems: vals} }

// VecOf builds a vector copying the given elements.
func VecOf(xs ...*big.Rat) *Vec {
	v := NewVec(len(xs))
	for i, x := range xs {
		v.elems[i].Set(x)
	}
	return v
}

// VecOfInts builds a vector from integer values.
func VecOfInts(xs ...int64) *Vec {
	v := NewVec(len(xs))
	for i, x := range xs {
		v.elems[i].SetInt64(x)
	}
	return v
}

// Len returns the dimension of v.
func (v *Vec) Len() int { return len(v.elems) }

// At returns a copy of element i.
func (v *Vec) At(i int) *big.Rat { return Copy(&v.elems[i]) }

// Ref returns element i itself, not a copy, for a read inside a procedure:
// the caller must neither modify nor retain it.
func (v *Vec) Ref(i int) *big.Rat { return &v.elems[i] }

// Values returns the vector's own elements, not copies, under Ref's rule:
// the caller must neither modify nor retain them.
func (v *Vec) Values() []big.Rat { return v.elems }

// SetAt sets element i to a copy of x.
func (v *Vec) SetAt(i int, x *big.Rat) { v.elems[i].Set(x) }

// Clone returns a deep copy of v.
func (v *Vec) Clone() *Vec {
	c := NewVec(v.Len())
	for i := range v.elems {
		c.elems[i].Set(&v.elems[i])
	}
	return c
}

// Dot returns the inner product of v and w. It panics on dimension mismatch.
func (v *Vec) Dot(w *Vec) *big.Rat {
	v.checkDim(w)
	total := new(big.Rat)
	term := new(big.Rat)
	for i := range v.elems {
		term.Mul(&v.elems[i], &w.elems[i])
		total.Add(total, term)
	}
	return total
}

// Sum returns the sum of the elements of v.
func (v *Vec) Sum() *big.Rat {
	total := new(big.Rat)
	for i := range v.elems {
		total.Add(total, &v.elems[i])
	}
	return total
}

// IsStochastic reports whether v is a probability vector: all elements in
// [0, 1] and summing to exactly 1.
func (v *Vec) IsStochastic() bool {
	one := One()
	for _, e := range v.elems {
		if e.Sign() < 0 || e.Cmp(one) > 0 {
			return false
		}
	}
	return v.Sum().Cmp(one) == 0
}

// Support returns the indices of the non-zero elements of v, in order.
func (v *Vec) Support() []int {
	var support []int
	for i, e := range v.elems {
		if e.Sign() != 0 {
			support = append(support, i)
		}
	}
	return support
}

// String renders v as "(a, b, c)".
func (v *Vec) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, e := range v.elems {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(e.RatString())
	}
	sb.WriteByte(')')
	return sb.String()
}

func (v *Vec) checkDim(w *Vec) {
	if v.Len() != w.Len() {
		panic("numeric: vector dimension mismatch")
	}
}
