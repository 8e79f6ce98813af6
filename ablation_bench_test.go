// Ablation benchmarks for the design choices DESIGN.md calls out:
// the block-size trade-off of §IV-B (convergence localization vs per-block
// overhead vs cache residency), the MTTKRP scheduling chunk size, the
// sparsity threshold of §IV-C, and the inner-iteration budget.
package aoadmm

import (
	"fmt"
	"math/rand"
	"testing"

	"aoadmm/internal/admm"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/prox"
)

// BenchmarkAblationBlockSize sweeps the blocked-ADMM block size on one inner
// solve — the paper's "B = I at one extreme" versus large blocks discussion.
// row-iters/op reports the convergence work each choice needed.
func BenchmarkAblationBlockSize(b *testing.B) {
	rows, rank := 20000, 16
	rng := rand.New(rand.NewSource(7))
	g := dense.AddScaledIdentity(dense.Gram(dense.Random(rank*3, rank, rng), 1), 0.5)
	k := dense.Random(rows, rank, rng)
	// Power-law row magnitudes so blocks converge non-uniformly.
	for i := 0; i < rows; i++ {
		scale := 1.0 / float64(1+i%97)
		if i < 50 {
			scale = 50
		}
		row := k.Row(i)
		for j := range row {
			row[j] *= scale
		}
	}
	h0 := dense.Random(rows, rank, rng)
	h := dense.New(rows, rank)
	u := dense.New(rows, rank)

	for _, bs := range []int{1, 10, 50, 200, 1000, rows} {
		b.Run(fmt.Sprintf("block=%d", bs), func(b *testing.B) {
			var rowIters int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h.CopyFrom(h0)
				u.Zero()
				b.StartTimer()
				st, err := admm.RunBlocked(h, u, k, g, nil, admm.Config{
					Prox: prox.NonNegative{}, BlockSize: bs, MaxIters: 50, Threads: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				rowIters = st.RowIterations
			}
			b.ReportMetric(float64(rowIters), "row-iters")
		})
	}
}

// BenchmarkAblationMTTKRPChunk sweeps the dynamic scheduler's chunk size on
// a power-law tensor, the knob trading scheduling overhead against load
// balance.
func BenchmarkAblationMTTKRPChunk(b *testing.B) {
	x := benchTensor(b, "reddit")
	rank := 16
	rng := rand.New(rand.NewSource(8))
	factors := make([]*dense.Matrix, x.Order())
	for m, d := range x.Dims {
		factors[m] = dense.Random(d, rank, rng)
	}
	tree := csf.Build(x.Clone(), csf.DefaultPerm(x.Order(), 0))
	out := dense.New(x.Dims[0], rank)
	for _, chunk := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mttkrp.Compute(tree, factors, out, nil, mttkrp.Options{Threads: 2, Chunk: chunk})
			}
		})
	}
}

// BenchmarkAblationSparseThreshold sweeps the §IV-C density threshold that
// decides when a factor is worth compressing.
func BenchmarkAblationSparseThreshold(b *testing.B) {
	x := benchTensor(b, "amazon")
	for _, threshold := range []float64{0.05, 0.20, 0.50, 1.0} {
		b.Run(fmt.Sprintf("thresh=%.2f", threshold), func(b *testing.B) {
			var sparse int
			for i := 0; i < b.N; i++ {
				res, err := Factorize(x, Options{
					Rank:            16,
					Constraints:     []Constraint{NonNegativeL1(0.1)},
					MaxOuterIters:   8,
					ExploitSparsity: true,
					SparseThreshold: threshold,
					Seed:            1,
				})
				if err != nil {
					b.Fatal(err)
				}
				sparse = res.SparseMTTKRPs
			}
			b.ReportMetric(float64(sparse), "sparse-mttkrps")
		})
	}
}

// BenchmarkAblationInnerIters sweeps the inner ADMM iteration budget: deep
// inner solves buy per-outer progress at a steep cost; warm-started shallow
// solves win on wall clock.
func BenchmarkAblationInnerIters(b *testing.B) {
	x := benchTensor(b, "reddit")
	for _, inner := range []int{1, 5, 10, 25, 50} {
		b.Run(fmt.Sprintf("inner=%d", inner), func(b *testing.B) {
			var relErr float64
			for i := 0; i < b.N; i++ {
				res, err := Factorize(x, Options{
					Rank:          16,
					Constraints:   []Constraint{NonNegative()},
					MaxOuterIters: 10,
					InnerMaxIters: inner,
					Seed:          1,
				})
				if err != nil {
					b.Fatal(err)
				}
				relErr = res.RelErr
			}
			b.ReportMetric(relErr, "rel-err")
		})
	}
}

// BenchmarkAblationSolver compares the three non-negative solvers sharing
// the MTTKRP/Gram substrate — AO-ADMM (blocked), CP-HALS, and (for the
// unconstrained reference point) CPD-ALS — at a matched outer-iteration
// budget. rel-err/op shows convergence per unit of outer work.
func BenchmarkAblationSolver(b *testing.B) {
	x := benchTensor(b, "amazon")
	const outers = 10
	b.Run("aoadmm-blocked", func(b *testing.B) {
		var relErr float64
		for i := 0; i < b.N; i++ {
			res, err := Factorize(x, Options{
				Rank: 16, Constraints: []Constraint{NonNegative()},
				MaxOuterIters: outers, InnerMaxIters: 10, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			relErr = res.RelErr
		}
		b.ReportMetric(relErr, "rel-err")
	})
	b.Run("hals", func(b *testing.B) {
		var relErr float64
		for i := 0; i < b.N; i++ {
			res, err := Factorize(x, Options{Variant: HALS, Rank: 16, MaxOuterIters: outers, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			relErr = res.RelErr
		}
		b.ReportMetric(relErr, "rel-err")
	})
	b.Run("als-unconstrained", func(b *testing.B) {
		var relErr float64
		for i := 0; i < b.N; i++ {
			res, err := Factorize(x, Options{Variant: ALS, Rank: 16, MaxOuterIters: outers, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			relErr = res.RelErr
		}
		b.ReportMetric(relErr, "rel-err")
	})
}

// BenchmarkAblationSingleCSF compares the default one-tree-per-mode layout
// against the memory-efficient single-tree configuration.
func BenchmarkAblationSingleCSF(b *testing.B) {
	x := benchTensor(b, "reddit")
	for _, single := range []bool{false, true} {
		name := "per-mode-trees"
		if single {
			name = "single-tree"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Factorize(x, Options{
					Rank: 16, Constraints: []Constraint{NonNegative()},
					MaxOuterIters: 8, SingleCSF: single, Seed: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAutoVsFixedBlock compares the analytical block-size model
// (§VI future work) against the paper's fixed 50.
func BenchmarkAblationAutoVsFixedBlock(b *testing.B) {
	x := benchTensor(b, "nell")
	for _, auto := range []bool{false, true} {
		name := "fixed50"
		if auto {
			name = "model"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Factorize(x, Options{
					Rank:          16,
					Constraints:   []Constraint{NonNegative()},
					MaxOuterIters: 8,
					AutoBlockSize: auto,
					Seed:          1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
