// Package kruskal represents the output of a CPD — a Kruskal tensor, the sum
// of F rank-one outer products (paper Fig. 1) — and computes the relative
// error metric used for convergence (§V-A):
//
//	relative error = ‖X − M‖_F / ‖X‖_F
//
// The residual norm is computed without a second pass over the tensor using
// ‖X − M‖² = ‖X‖² − 2⟨X, M⟩ + ‖M‖², where ⟨X, M⟩ falls out of the last
// MTTKRP (⟨X, M⟩ = Σᵢf K(i,f)·A_m(i,f)) and ‖M‖² = 1ᵀ(∗ₙ AₙᵀAₙ)1.
package kruskal

import (
	"fmt"
	"math"
	"math/rand"

	"aoadmm/internal/dense"
)

// Tensor is a Kruskal (factored) tensor: one I_m x F factor per mode.
// Lambda holds per-component weights (nil or all-ones when folded into the
// factors, which is how AO-ADMM maintains them).
type Tensor struct {
	Factors []*dense.Matrix
	Lambda  []float64
}

// New allocates zero factors of the given shape.
func New(dims []int, rank int) *Tensor {
	fs := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		fs[m] = dense.New(d, rank)
	}
	return &Tensor{Factors: fs}
}

// Random allocates factors with uniform [0, 1) entries, the AO-ADMM
// initialization (Algorithm 2, line 1).
func Random(dims []int, rank int, rng *rand.Rand) *Tensor {
	fs := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		fs[m] = dense.Random(d, rank, rng)
	}
	return &Tensor{Factors: fs}
}

// Init builds the AO starting point every solver uses: Random over a
// generator seeded with seed (never the shared package-level source), then
// one common scale on every factor so that ‖M₀‖² = xNormSq. Without the
// rescale a non-negative run whose data values dwarf the O(rank) initial
// model spends its first outer iterations in a flat relerr ≈ 1 transient
// that can falsely trip the improvement-based stopping rule. The model norm
// is a threads-way reduction, so the factors are bit-identical only between
// calls with the same threads: the distributed engines pass 1 and therefore
// reproduce a shared-memory run exactly when that run uses Threads 1.
func Init(dims []int, rank int, seed int64, xNormSq float64, threads int) *Tensor {
	model := Random(dims, rank, rand.New(rand.NewSource(seed)))
	if xNormSq <= 0 {
		return model
	}
	mNormSq := model.NormSq(threads)
	if mNormSq <= 0 {
		return model
	}
	s := math.Pow(xNormSq/mNormSq, 0.5/float64(len(dims)))
	for _, f := range model.Factors {
		dense.Scale(f, s)
	}
	return model
}

// Order returns the number of modes.
func (k *Tensor) Order() int { return len(k.Factors) }

// Rank returns the decomposition rank F.
func (k *Tensor) Rank() int {
	if len(k.Factors) == 0 {
		return 0
	}
	return k.Factors[0].Cols
}

// Dims returns the mode lengths.
func (k *Tensor) Dims() []int {
	dims := make([]int, k.Order())
	for m, f := range k.Factors {
		dims[m] = f.Rows
	}
	return dims
}

// Clone deep-copies the Kruskal tensor.
func (k *Tensor) Clone() *Tensor {
	fs := make([]*dense.Matrix, len(k.Factors))
	for m, f := range k.Factors {
		fs[m] = f.Clone()
	}
	var lam []float64
	if k.Lambda != nil {
		lam = append([]float64(nil), k.Lambda...)
	}
	return &Tensor{Factors: fs, Lambda: lam}
}

// Validate checks the structural invariants every consumer of a Kruskal
// tensor assumes: at least one factor, every factor non-nil and non-empty,
// one shared rank across modes, a Lambda (when present) of that rank, and
// only finite entries. It returns a descriptive error naming the offending
// mode instead of letting At/FMS/NormSq panic or silently produce NaNs —
// the guard that makes loading untrusted model directories safe.
func (k *Tensor) Validate() error {
	if len(k.Factors) == 0 {
		return fmt.Errorf("kruskal: no factor matrices")
	}
	for m, f := range k.Factors {
		if f == nil {
			return fmt.Errorf("kruskal: mode %d factor is nil", m)
		}
	}
	rank := k.Factors[0].Cols
	if rank <= 0 {
		return fmt.Errorf("kruskal: rank %d, want > 0", rank)
	}
	for m, f := range k.Factors {
		if f.Rows <= 0 {
			return fmt.Errorf("kruskal: mode %d factor has %d rows, want > 0", m, f.Rows)
		}
		if f.Cols != rank {
			return fmt.Errorf("kruskal: mode %d has rank %d, mode 0 has rank %d", m, f.Cols, rank)
		}
		for i := 0; i < f.Rows; i++ {
			for j, v := range f.Row(i) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("kruskal: mode %d entry (%d,%d) is non-finite (%v)", m, i, j, v)
				}
			}
		}
	}
	if k.Lambda != nil {
		if len(k.Lambda) != rank {
			return fmt.Errorf("kruskal: %d lambda weights for rank %d", len(k.Lambda), rank)
		}
		for f, l := range k.Lambda {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return fmt.Errorf("kruskal: lambda %d is non-finite (%v)", f, l)
			}
		}
	}
	return nil
}

// At evaluates the model at one coordinate: Σ_f λ_f Π_m A_m(i_m, f).
func (k *Tensor) At(coord []int) float64 {
	if len(coord) != k.Order() {
		panic(fmt.Sprintf("kruskal: coordinate length %d for order %d", len(coord), k.Order()))
	}
	rank := k.Rank()
	var val float64
	for f := 0; f < rank; f++ {
		prod := 1.0
		if k.Lambda != nil {
			prod = k.Lambda[f]
		}
		for m, fm := range k.Factors {
			prod *= fm.At(coord[m], f)
		}
		val += prod
	}
	return val
}

// NormSq returns ‖M‖²_F = λᵀ(∗ₙ AₙᵀAₙ)λ, computed from the F x F Gram
// matrices — no pass over any dense tensor.
func (k *Tensor) NormSq(nThreads int) float64 {
	rank := k.Rank()
	grams := make([]*dense.Matrix, k.Order())
	for m, f := range k.Factors {
		grams[m] = dense.Gram(f, nThreads)
	}
	prod := dense.HadamardAll(grams...)
	lam := k.Lambda
	var s float64
	for i := 0; i < rank; i++ {
		li := 1.0
		if lam != nil {
			li = lam[i]
		}
		for j := 0; j < rank; j++ {
			lj := 1.0
			if lam != nil {
				lj = lam[j]
			}
			s += li * lj * prod.At(i, j)
		}
	}
	return s
}

// NormSqFromGrams is NormSq when the per-mode Gram matrices are already
// available (the AO-ADMM loop maintains them), assuming unit lambda.
func NormSqFromGrams(grams []*dense.Matrix) float64 {
	prod := dense.HadamardAll(grams...)
	var s float64
	for i := range prod.Data {
		s += prod.Data[i]
	}
	return s
}

// InnerWithMTTKRP returns ⟨X, M⟩ given K = MTTKRP(X, mode) and the mode's
// factor: ⟨X, M⟩ = Σ_{i,f} K(i,f)·A(i,f) (unit lambda).
func InnerWithMTTKRP(k, factor *dense.Matrix) float64 {
	return dense.Dot(k, factor)
}

// RelErr computes ‖X − M‖/‖X‖ from the three scalar pieces. Tiny negative
// residuals from floating-point cancellation are clamped to zero.
func RelErr(xNormSq, innerXM, mNormSq float64) float64 {
	if xNormSq <= 0 {
		return 0
	}
	resid := xNormSq - 2*innerXM + mNormSq
	if resid < 0 {
		resid = 0
	}
	return math.Sqrt(resid) / math.Sqrt(xNormSq)
}

// Normalize scales each factor's columns to unit norm, accumulating the
// weights into Lambda. Useful for presenting or comparing solutions.
func (k *Tensor) Normalize() {
	rank := k.Rank()
	if k.Lambda == nil {
		k.Lambda = make([]float64, rank)
		for f := range k.Lambda {
			k.Lambda[f] = 1
		}
	}
	for _, fm := range k.Factors {
		norms := dense.NormalizeColumns(fm)
		for f, n := range norms {
			if n > 0 {
				k.Lambda[f] *= n
			} else {
				k.Lambda[f] = 0
			}
		}
	}
}
