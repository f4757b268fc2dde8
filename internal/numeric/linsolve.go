package numeric

import (
	"errors"
	"math/big"
)

// ErrInconsistent is returned by Solve when the linear system Ax = b has no
// solution.
var ErrInconsistent = errors.New("numeric: linear system is inconsistent")

// Solution describes the solution set of a linear system.
type Solution struct {
	// X is one solution of Ax = b (free variables set to zero).
	X *Vec
	// Unique reports whether X is the only solution.
	Unique bool
	// Rank is the rank of the coefficient matrix.
	Rank int
	// FreeCols lists the column indices that are free variables (empty when
	// the solution is unique).
	FreeCols []int
}

// Solve solves Ax = b exactly. It returns ErrInconsistent when no solution
// exists. When the system is underdetermined, the returned solution has all
// free variables set to zero and Unique is false.
//
// The elimination is fraction-free (Bareiss 1968): each row of [A | b] is
// scaled by the LCM of its denominators to integers, every elimination step
// divides exactly by the previous pivot, and one back-substitution over the
// integers gives d·x, where d is the last pivot. Only the answer is
// normalised, once per unknown.
func Solve(a *Matrix, b *Vec) (*Solution, error) {
	if a.Rows() != b.Len() {
		panic("numeric: system shape mismatch")
	}
	rows, cols := a.Rows(), a.Cols()
	w := cols + 1
	m := make([]big.Int, rows*w) // [A | b], each row scaled to integers
	var scale, g, t big.Int
	for i := 0; i < rows; i++ {
		row := m[i*w : (i+1)*w]
		entry := func(j int) *big.Rat {
			if j < cols {
				return a.elems[i*cols+j]
			}
			return b.elems[i]
		}
		scale.SetInt64(1)
		for j := range row {
			if e := entry(j); !e.IsInt() {
				g.GCD(nil, nil, &scale, e.Denom())
				scale.Mul(&scale, t.Quo(e.Denom(), &g))
			}
		}
		for j := range row {
			e := entry(j)
			if e.IsInt() {
				row[j].Mul(e.Num(), &scale)
			} else {
				row[j].Mul(e.Num(), t.Quo(&scale, e.Denom()))
			}
		}
	}

	// Forward elimination to row echelon form. After the step on pivot
	// (row, col), every entry below it is a minor of the scaled system, so
	// the division by the previous pivot is exact.
	var pivotCols []int
	prev := big.NewInt(1)
	row := 0
	for col := 0; col < cols && row < rows; col++ {
		pivot := -1
		for r := row; r < rows; r++ {
			if m[r*w+col].Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		if pivot != row {
			for j := col; j < w; j++ {
				m[row*w+j], m[pivot*w+j] = m[pivot*w+j], m[row*w+j]
			}
		}
		p := &m[row*w+col]
		for r := row + 1; r < rows; r++ {
			f := &m[r*w+col]
			for j := col + 1; j < w; j++ {
				e := &m[r*w+j]
				e.Mul(e, p)
				e.Sub(e, t.Mul(f, &m[row*w+j]))
				e.Quo(e, prev)
			}
			f.SetInt64(0)
		}
		prev = p
		pivotCols = append(pivotCols, col)
		row++
	}
	rank := len(pivotCols)

	// Inconsistency: a zero row of A with non-zero augmented entry.
	for i := rank; i < rows; i++ {
		if m[i*w+cols].Sign() != 0 {
			return nil, ErrInconsistent
		}
	}

	// Back-substitution for y = d·x with the free variables at zero: by
	// Cramer's rule on the pivot rows and columns, y is integral, so every
	// division is exact.
	d := prev
	y := make([]big.Int, cols)
	for r := rank - 1; r >= 0; r-- {
		acc := &y[pivotCols[r]]
		acc.Mul(d, &m[r*w+cols])
		for _, c := range pivotCols[r+1:] {
			acc.Sub(acc, t.Mul(&m[r*w+c], &y[c]))
		}
		acc.Quo(acc, &m[r*w+pivotCols[r]])
	}
	x := NewVec(cols)
	for _, c := range pivotCols {
		x.elems[c].SetFrac(&y[c], d)
	}

	isPivot := make([]bool, cols)
	for _, c := range pivotCols {
		isPivot[c] = true
	}
	var freeCols []int
	for j := 0; j < cols; j++ {
		if !isPivot[j] {
			freeCols = append(freeCols, j)
		}
	}

	return &Solution{X: x, Unique: rank == cols, Rank: rank, FreeCols: freeCols}, nil
}
