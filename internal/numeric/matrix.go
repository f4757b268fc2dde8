package numeric

import (
	"math/big"
	"strings"
)

// Matrix is a dense rows×cols matrix of rationals. Elements are owned by the
// matrix; accessors copy on read and write.
type Matrix struct {
	rows, cols int
	elems      []*big.Rat // row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("numeric: negative matrix dimension")
	}
	return MatrixOver(rows, cols, make([]big.Rat, rows*cols)) // one allocation for every element
}

// MatrixOver returns the rows×cols matrix whose elements, row-major, are
// vals themselves: the matrix keeps vals, which the caller must not use
// afterwards. It panics unless len(vals) is rows·cols.
func MatrixOver(rows, cols int, vals []big.Rat) *Matrix {
	if len(vals) != rows*cols {
		panic("numeric: matrix shape does not match its elements")
	}
	return &Matrix{rows: rows, cols: cols, elems: VecOver(vals).elems}
}

// MatrixOfInts builds a matrix from integer rows. All rows must have equal
// length.
func MatrixOfInts(rows [][]int64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.cols {
			panic("numeric: ragged matrix literal")
		}
		for j, x := range row {
			m.elems[i*m.cols+j].SetInt64(x)
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns a copy of element (i, j).
func (m *Matrix) At(i, j int) *big.Rat { return Copy(m.at(i, j)) }

// Ref returns element (i, j) itself, not a copy, for a read inside a
// procedure: the caller must neither modify nor retain it.
func (m *Matrix) Ref(i, j int) *big.Rat { return m.at(i, j) }

// SetAt sets element (i, j) to a copy of x.
func (m *Matrix) SetAt(i, j int, x *big.Rat) { m.at(i, j).Set(x) }

func (m *Matrix) at(i, j int) *big.Rat {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic("numeric: matrix index out of range")
	}
	return m.elems[i*m.cols+j]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	for i, e := range m.elems {
		c.elems[i].Set(e)
	}
	return c
}

// MulVec returns m·v as a fresh vector. It panics if v.Len() != m.Cols().
func (m *Matrix) MulVec(v *Vec) *Vec {
	if v.Len() != m.cols {
		panic("numeric: matrix-vector dimension mismatch")
	}
	out := NewVec(m.rows)
	term := new(big.Rat)
	for i := 0; i < m.rows; i++ {
		acc := out.elems[i]
		for j := 0; j < m.cols; j++ {
			term.Mul(m.at(i, j), v.elems[j])
			acc.Add(acc, term)
		}
	}
	return out
}

// VecMul returns vᵀ·m as a fresh vector. It panics if v.Len() != m.Rows().
func (m *Matrix) VecMul(v *Vec) *Vec {
	if v.Len() != m.rows {
		panic("numeric: vector-matrix dimension mismatch")
	}
	out := NewVec(m.cols)
	term := new(big.Rat)
	for j := 0; j < m.cols; j++ {
		acc := out.elems[j]
		for i := 0; i < m.rows; i++ {
			term.Mul(v.elems[i], m.at(i, j))
			acc.Add(acc, term)
		}
	}
	return out
}

// String renders the matrix one row per line.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(m.at(i, j).RatString())
		}
		sb.WriteByte(']')
	}
	return sb.String()
}
