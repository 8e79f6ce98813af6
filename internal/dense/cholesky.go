package dense

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when a pivot is not
// positive. Callers either fail or retry with diagonal jitter.
var ErrNotPositiveDefinite = errors.New("dense: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix M = L·Lᵀ and solves linear systems against it. ADMM forms
// one Cholesky of (G + ρI) per mode per outer iteration and then performs one
// forward/backward solve per matrix row per inner iteration, so Solve-side
// routines are the hot path.
type Cholesky struct {
	n  int
	l  *Matrix // lower triangle, upper part zero
	lt *Matrix // Lᵀ (upper triangle), so backward substitution reads rows
}

// NewCholesky factors the symmetric positive definite matrix m. Only the
// lower triangle of m is read.
func NewCholesky(m *Matrix) (*Cholesky, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("dense: Cholesky of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		li := l.Row(i)
		for j := 0; j <= i; j++ {
			lj := l.Row(j)
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrNotPositiveDefinite
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return &Cholesky{n: n, l: l, lt: l.Transpose()}, nil
}

// NewCholeskyJitter factors m, retrying with exponentially growing diagonal
// jitter if m is numerically indefinite (which can happen for Gram matrices
// of rank-deficient factors). It returns the factorization and the jitter
// that was finally added.
func NewCholeskyJitter(m *Matrix, baseJitter float64, maxTries int) (*Cholesky, float64, error) {
	if baseJitter <= 0 {
		baseJitter = 1e-12 * (1 + Trace(m)/float64(max(m.Rows, 1)))
	}
	ch, err := NewCholesky(m)
	if err == nil {
		return ch, 0, nil
	}
	jitter := baseJitter
	for try := 0; try < maxTries; try++ {
		ch, err = NewCholesky(AddScaledIdentity(m, jitter))
		if err == nil {
			return ch, jitter, nil
		}
		jitter *= 10
	}
	return nil, 0, fmt.Errorf("dense: Cholesky failed after %d jitter retries: %w", maxTries, err)
}

// N returns the dimension of the factored matrix.
func (c *Cholesky) N() int { return c.n }

// L returns the lower-triangular factor (aliased, do not mutate).
func (c *Cholesky) L() *Matrix { return c.l }

// SolveVec solves (L·Lᵀ)·x = b in place: b is overwritten with x.
// len(b) must equal N().
func (c *Cholesky) SolveVec(b []float64) {
	n := c.n
	if len(b) != n {
		panic(fmt.Sprintf("dense: SolveVec length %d != %d", len(b), n))
	}
	// Forward substitution L·y = b (rows of L).
	for i := 0; i < n; i++ {
		li := c.l.Row(i)
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= li[k] * b[k]
		}
		b[i] = sum / li[i]
	}
	// Backward substitution Lᵀ·x = y (rows of Lᵀ, contiguous access).
	for i := n - 1; i >= 0; i-- {
		lti := c.lt.Row(i)
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= lti[k] * b[k]
		}
		b[i] = sum / lti[i]
	}
}

// SolveRows solves (L·Lᵀ)·xᵀ = bᵀ for every row of b in place; that is, each
// row b(i,:) is replaced by the solution of (L·Lᵀ)x = b(i,:)ᵀ. This is the
// multi-right-hand-side solve at the heart of the ADMM primal update
// (Algorithm 1, line 6), expressed over rows of the tall-and-skinny matrix so
// that it is trivially row-separable and therefore blockable.
//
// Rows are solved in panels of up to solvePanel rows. Each panel is
// transposed into an N() x rows tile, so that every substitution step
// sum -= L[i][k]·b[k] becomes one AxpyRow(t_i, −L[i][k], t_k) across the
// panel: the vector lanes run across rows, each lane performs its row's
// operations in SolveVec's order, and since a + (−l)·b rounds exactly as
// a − l·b and every pivot is a true division, each row comes out bitwise
// equal to SolveVec. Panels under solveLaneMin rows run SolveVec per row.
//
// scratch optionally supplies the tile: if scratch[0] holds at least
// N()·min(b.Rows, solvePanel) elements it is used, and otherwise one panel
// is allocated per call.
func (c *Cholesky) SolveRows(b *Matrix, scratch ...[]float64) {
	n := c.n
	if b.Cols != n {
		panic(fmt.Sprintf("dense: SolveRows width %d != %d", b.Cols, n))
	}
	panel := min(b.Rows, solvePanel)
	var tile []float64
	if panel >= solveLaneMin {
		if len(scratch) > 0 {
			tile = scratch[0]
		}
		if len(tile) < n*panel {
			tile = make([]float64, n*panel)
		}
	}
	for lo := 0; lo < b.Rows; lo += panel {
		hi := min(lo+panel, b.Rows)
		if hi-lo < solveLaneMin {
			for i := lo; i < hi; i++ {
				c.SolveVec(b.Row(i))
			}
			continue
		}
		c.solveLanes(b, lo, hi, tile[:n*(hi-lo)])
	}
}

// solvePanel is the most rows one SolveRows tile holds: it covers ADMM's
// default 50-row block in one panel, and at F = 50 the tile is 25 KiB.
const solvePanel = 64

// solveLaneMin is the fewest rows a panel needs to run across lanes. Below
// it the transposes, the short AxpyRow calls and their scalar tails cost
// more than per-row SolveVec saves. BenchmarkSolveRows, median of 5 on a
// 2-vCPU AVX2 host, µs per panel, lanes vs SolveVec per row:
//
//	rows   F = 10        F = 25        F = 50
//	   1   0.66 / 0.14   4.33 / 0.61   16.3 / 2.2
//	   4   0.64 / 0.59   3.68 / 2.43   13.9 / 10.5
//	   6   0.74 / 0.84   4.72 / 3.75   16.7 / 13.5
//	   8   0.73 / 1.13   3.99 / 4.83   14.2 / 16.0
//	  50   2.26 / 6.45   12.6 / 32.2   33.7 / 101
//
// So a fold-in (1 row), the last rows of a mode and a distnet worker's last
// owned rows stay on SolveVec.
const solveLaneMin = 8

// solveLanes solves rows [lo, hi) of b through the transposed tile t, which
// holds exactly N()·(hi−lo) elements.
func (c *Cholesky) solveLanes(b *Matrix, lo, hi int, t []float64) {
	n, m := c.n, hi-lo
	for r := 0; r < m; r++ {
		for j, v := range b.Row(lo + r) {
			t[j*m+r] = v
		}
	}
	// Forward substitution L·y = b, one tile row per unknown.
	for i := 0; i < n; i++ {
		ti := t[i*m : (i+1)*m]
		li := c.l.Row(i)
		for k := 0; k < i; k++ {
			axpyRow(ti, -li[k], t[k*m:(k+1)*m])
		}
		divRow(ti, li[i])
	}
	// Backward substitution Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		ti := t[i*m : (i+1)*m]
		lti := c.lt.Row(i)
		for k := i + 1; k < n; k++ {
			axpyRow(ti, -lti[k], t[k*m:(k+1)*m])
		}
		divRow(ti, lti[i])
	}
	for r := 0; r < m; r++ {
		row := b.Row(lo + r)
		for j := range row {
			row[j] = t[j*m+r]
		}
	}
}

// divRow divides every element by d. It divides rather than multiplying by
// 1/d, which would round differently.
func divRow(x []float64, d float64) {
	for i := range x {
		x[i] /= d
	}
}

// Reconstruct returns L·Lᵀ (for tests).
func (c *Cholesky) Reconstruct() *Matrix {
	return MatMul(c.l, c.l.Transpose())
}
