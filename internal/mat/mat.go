// Package mat implements the small dense linear-algebra kernel required by
// the Co-plot pipeline: row-major matrices, symmetric eigendecomposition
// (cyclic Jacobi), pivoted Gaussian elimination, and the double-centering
// operator used by classical multidimensional scaling.
//
// The matrices in this repository are tiny (tens of rows), so the
// implementations favor clarity and numerical robustness over blocking or
// vectorization.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// New returns a zero-filled rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: FromRows needs at least one non-empty row")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: ragged row %d: %d != %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("mat: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "%10.4f ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// DoubleCenter applies the centering operator B = -1/2 * J * D2 * J, where
// J = I - 11'/n, to a matrix of squared dissimilarities. This is the first
// step of Torgerson's classical scaling.
func DoubleCenter(d2 *Matrix) *Matrix {
	if d2.Rows != d2.Cols {
		panic("mat: DoubleCenter needs a square matrix")
	}
	n := d2.Rows
	rowMean := make([]float64, n)
	colMean := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := d2.At(i, j)
			rowMean[i] += v
			colMean[j] += v
			total += v
		}
	}
	for i := range rowMean {
		rowMean[i] /= float64(n)
		colMean[i] /= float64(n)
	}
	total /= float64(n * n)
	b := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, -0.5*(d2.At(i, j)-rowMean[i]-colMean[j]+total))
		}
	}
	return b
}

// Solve solves the linear system A x = b by Gaussian elimination with
// partial pivoting. A must be square; it is not modified. Solve returns an
// error when A is singular to working precision.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: Solve needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("mat: Solve rhs length %d != %d", len(b), a.Rows)
	}
	n := a.Rows
	aug := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(aug.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, fmt.Errorf("mat: singular matrix (pivot %g at column %d)", best, col)
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				v1, v2 := aug.At(col, j), aug.At(pivot, j)
				aug.Set(col, j, v2)
				aug.Set(pivot, j, v1)
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / aug.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aug.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				aug.Set(r, j, aug.At(r, j)-f*aug.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= aug.At(i, j) * x[j]
		}
		x[i] = s / aug.At(i, i)
	}
	return x, nil
}
