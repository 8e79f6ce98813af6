// Package dense implements the dense linear-algebra substrate AO-ADMM needs:
// a row-major matrix type, BLAS-like products (GEMM, SYRK, Hadamard),
// Cholesky factorization with forward/backward substitution, and the
// tall-and-skinny parallel row operations that dominate ADMM iterations.
//
// The matrices of interest are either tall and skinny (I x F, with I up to
// millions and F <= a few hundred) or tiny and square (F x F Gram matrices).
// All kernels are exact O(n^3)/O(n^2) textbook algorithms; the performance
// story of the paper lives in how rows are blocked and scheduled, not in
// micro-optimized BLAS. The one exception is the row primitives (rows.go):
// the elementwise updates MTTKRP makes once per non-zero, vectorized on
// amd64 without changing a single rounding.
package dense

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix. Row i occupies
// Data[i*Stride : i*Stride+Cols]. Stride >= Cols allows row-block views to
// share underlying storage with the parent matrix.
type Matrix struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float64
}

// New returns a zeroed rows x cols matrix with Stride == cols.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{
		Rows:   rows,
		Cols:   cols,
		Stride: cols,
		Data:   make([]float64, rows*cols),
	}
}

// FromRows builds a matrix from a slice of equal-length rows. Intended for
// tests and examples.
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("dense: ragged rows")
		}
		copy(m.Row(i), row)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 {
	off := i * m.Stride
	return m.Data[off : off+m.Cols]
}

// RowBlock returns the sub-matrix of rows [begin, end) as a view sharing
// storage with m. Mutations through the view are visible in m.
func (m *Matrix) RowBlock(begin, end int) *Matrix {
	if begin < 0 || end > m.Rows || begin > end {
		panic(fmt.Sprintf("dense: row block [%d,%d) out of range for %d rows", begin, end, m.Rows))
	}
	return &Matrix{
		Rows:   end - begin,
		Cols:   m.Cols,
		Stride: m.Stride,
		Data:   m.Data[begin*m.Stride : (end-1)*m.Stride+m.Cols],
	}
}

// Clone returns a deep copy with compact stride.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(c.Row(i), m.Row(i))
	}
	return c
}

// CopyFrom copies src into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("dense: copy shape mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero sets all elements to zero.
func (m *Matrix) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// Eye returns the n x n identity.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Random fills a rows x cols matrix with uniform values in [0, 1) drawn from
// rng. AO-ADMM initializes primal factors this way.
func Random(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// Equal reports whether a and b have identical shape and elements within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Abs(ra[j]-rb[j]) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the maximum elementwise absolute difference between two
// same-shaped matrices.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("dense: shape mismatch")
	}
	var m float64
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if d := math.Abs(ra[j] - rb[j]); d > m {
				m = d
			}
		}
	}
	return m
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Set(j, i, v)
		}
	}
	return t
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("%dx%d[", m.Rows, m.Cols)
	for i := 0; i < m.Rows && i < 8; i++ {
		if i > 0 {
			s += "; "
		}
		row := m.Row(i)
		for j, v := range row {
			if j > 0 {
				s += " "
			}
			if j >= 8 {
				s += "..."
				break
			}
			s += fmt.Sprintf("%.4g", v)
		}
	}
	if m.Rows > 8 {
		s += "; ..."
	}
	return s + "]"
}
