package core

import (
	"aoadmm/internal/dense"
	"aoadmm/internal/par"
	"aoadmm/internal/stats"
)

// alsRidge is the λ the ALS update adds to the diagonal of the normal
// equations for stability; a tiny jitter is still applied if the Gram
// product is singular.
const alsRidge = 1e-10

// alsStep is the ALS variant's update, the unconstrained cross-check
// baseline: with no constraints AO-ADMM must reach a comparable fit. It is
// the exact least-squares solve A_m = K·(G + alsRidge·I)⁻¹, through a
// Cholesky factorization that adds diagonal jitter if G is singular.
func alsStep(*Options, []int, *stats.Metrics, *par.Telemetry) (modeStep, error) {
	return modeStep{
		solver: "ALS ",
		kernel: stats.KernelCholesky,
		label:  "als",
		update: func(_ int, a, k, g *dense.Matrix) (int, int64, error) {
			ch, _, err := dense.NewCholeskyJitter(dense.AddScaledIdentity(g, alsRidge), 0, 30)
			if err != nil {
				return 0, 0, err
			}
			a.CopyFrom(k)
			ch.SolveRows(a)
			return 0, 0, nil
		},
	}, nil
}
