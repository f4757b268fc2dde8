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

// Solve solves Ax = b by exact Gauss-Jordan elimination. It returns
// ErrInconsistent when no solution exists. When the system is
// underdetermined, the returned solution has all free variables set to zero
// and Unique is false.
func Solve(a *Matrix, b *Vec) (*Solution, error) {
	if a.Rows() != b.Len() {
		panic("numeric: system shape mismatch")
	}
	rows, cols := a.Rows(), a.Cols()

	// Build the augmented matrix [A | b] with a workspace we can mutate.
	aug := NewMatrix(rows, cols+1)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			aug.at(i, j).Set(a.at(i, j))
		}
		aug.at(i, cols).Set(b.elems[i])
	}

	pivotCols := gaussJordan(aug, cols)
	rank := len(pivotCols)

	// Inconsistency: a zero row of A with non-zero augmented entry.
	for i := rank; i < rows; i++ {
		if aug.at(i, cols).Sign() != 0 {
			return nil, ErrInconsistent
		}
	}

	x := NewVec(cols)
	for r, c := range pivotCols {
		x.elems[c].Set(aug.at(r, cols))
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

// gaussJordan reduces the first limit columns of m in place to reduced row
// echelon form and returns the pivot column of each pivot row, in row order.
// Columns at index >= limit (the augmented part) are carried along.
func gaussJordan(m *Matrix, limit int) []int {
	rows := m.Rows()
	var pivotCols []int
	factor := new(big.Rat)
	prod := new(big.Rat)

	row := 0
	for col := 0; col < limit && row < rows; col++ {
		// Find a pivot in this column at or below `row`.
		pivot := -1
		for r := row; r < rows; r++ {
			if m.at(r, col).Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m.swapRows(row, pivot)

		// Normalize the pivot row.
		inv := new(big.Rat).Inv(m.at(row, col))
		for j := col; j < m.Cols(); j++ {
			m.at(row, j).Mul(m.at(row, j), inv)
		}

		// Eliminate the column from every other row.
		for r := 0; r < rows; r++ {
			if r == row || m.at(r, col).Sign() == 0 {
				continue
			}
			factor.Set(m.at(r, col))
			for j := col; j < m.Cols(); j++ {
				prod.Mul(factor, m.at(row, j))
				m.at(r, j).Sub(m.at(r, j), prod)
			}
		}

		pivotCols = append(pivotCols, col)
		row++
	}
	return pivotCols
}

func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	for c := 0; c < m.cols; c++ {
		m.elems[i*m.cols+c], m.elems[j*m.cols+c] = m.elems[j*m.cols+c], m.elems[i*m.cols+c]
	}
}
