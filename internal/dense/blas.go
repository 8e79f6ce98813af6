package dense

import (
	"aoadmm/internal/par"
)

// Gram computes Aᵀ·A for a tall-and-skinny A (I x F), returning an F x F
// symmetric matrix. The reduction is parallelized over row blocks with
// per-thread F x F accumulators (F is tiny, so the accumulators are cheap and
// the combine step is negligible). Each row adds a_ip·a_i(p:) into the
// accumulator's row p through AxpyRow, so every element still sums over i in
// row order. Zero a_ip are skipped, which keeps an Inf or NaN elsewhere in
// row i out of accumulator row p.
func Gram(a *Matrix, nThreads int) *Matrix {
	f := a.Cols
	nThreads = par.Threads(nThreads)
	partials := make([]*Matrix, nThreads)
	par.Static(a.Rows, nThreads, func(tid, begin, end int) {
		acc := New(f, f)
		for i := begin; i < end; i++ {
			row := a.Row(i)
			for p := 0; p < f; p++ {
				rp := row[p]
				if rp == 0 {
					continue
				}
				AxpyRow(acc.Row(p)[p:], rp, row[p:])
			}
		}
		partials[tid] = acc
	})
	out := New(f, f)
	for _, p := range partials {
		if p == nil {
			continue
		}
		for i := range out.Data {
			out.Data[i] += p.Data[i]
		}
	}
	// Mirror the upper triangle into the lower.
	for p := 0; p < f; p++ {
		for q := p + 1; q < f; q++ {
			out.Set(q, p, out.At(p, q))
		}
	}
	return out
}

// Hadamard computes the elementwise product dst = a * b. dst may alias a or
// b. All three must share a shape.
func Hadamard(dst, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("dense: Hadamard shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb, rd := a.Row(i), b.Row(i), dst.Row(i)
		for j := range rd {
			rd[j] = ra[j] * rb[j]
		}
	}
}

// HadamardAll returns the elementwise product of one or more same-shaped
// matrices. AO-ADMM forms G = ∗_{n≠m} AₙᵀAₙ this way.
func HadamardAll(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("dense: HadamardAll of nothing")
	}
	out := ms[0].Clone()
	for _, m := range ms[1:] {
		Hadamard(out, out, m)
	}
	return out
}

// GramProduct returns the Hadamard product of every Gram matrix except
// grams[skip]: the G = ∗_{n≠m} AₙᵀAₙ each AO mode update solves against
// (Algorithm 2, lines 4/8/12).
func GramProduct(grams []*Matrix, skip int) *Matrix {
	var out *Matrix
	for m, g := range grams {
		if m == skip {
			continue
		}
		if out == nil {
			out = g.Clone()
		} else {
			Hadamard(out, out, g)
		}
	}
	return out
}

// MatMul returns a·b using straightforward i-k-j loop ordering (row-major
// friendly). Intended for F x F and validation-sized problems.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("dense: MatMul inner dimension mismatch")
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		ra := a.Row(i)
		ro := out.Row(i)
		for k, av := range ra {
			if av == 0 {
				continue
			}
			rb := b.Row(k)
			for j := range ro {
				ro[j] += av * rb[j]
			}
		}
	}
	return out
}

// AddScaledIdentity returns m + c·I for square m.
func AddScaledIdentity(m *Matrix, c float64) *Matrix {
	if m.Rows != m.Cols {
		panic("dense: AddScaledIdentity on non-square matrix")
	}
	out := m.Clone()
	for i := 0; i < out.Rows; i++ {
		out.Set(i, i, out.At(i, i)+c)
	}
	return out
}

// Trace returns the sum of the diagonal of a square matrix.
func Trace(m *Matrix) float64 {
	if m.Rows != m.Cols {
		panic("dense: Trace of non-square matrix")
	}
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}

// AXPY computes dst = dst + alpha*src rowwise; shapes must match.
func AXPY(dst *Matrix, alpha float64, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("dense: AXPY shape mismatch")
	}
	if dst.Stride == dst.Cols && src.Stride == src.Cols {
		AxpyRow(dst.Data[:dst.Rows*dst.Cols], alpha, src.Data)
		return
	}
	for i := 0; i < dst.Rows; i++ {
		AxpyRow(dst.Row(i), alpha, src.Row(i))
	}
}

// Scale multiplies every element of m by alpha.
func Scale(m *Matrix, alpha float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= alpha
		}
	}
}

// Dot returns the Frobenius inner product <a, b> = Σ a(i,j)·b(i,j).
func Dot(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("dense: Dot shape mismatch")
	}
	var s float64
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			s += ra[j] * rb[j]
		}
	}
	return s
}
