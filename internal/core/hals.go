package core

import (
	"aoadmm/internal/dense"
	"aoadmm/internal/par"
	"aoadmm/internal/stats"
)

// halsStep is the HALS variant's update (Cichocki & Phan — the paper's
// related work [5]), the classical fast local method for non-negative
// factorizations: one halsUpdate sweep over the mode's columns,
//
//	A(:,f) ← max(0, A(:,f) + (K(:,f) − A·G(:,f)) / G(f,f)),
//
// where K is the mode's MTTKRP and G the Hadamard Gram product. It shares
// the MTTKRP/Gram substrate with AO-ADMM, so their convergence per unit work
// is directly comparable.
func halsStep(opts *Options, _ []int, _ *stats.Metrics, tel *par.Telemetry) (modeStep, error) {
	return modeStep{
		solver: "HALS ",
		kernel: stats.KernelHALSUpdate,
		label:  "hals",
		update: func(_ int, a, k, g *dense.Matrix) (int, int64, error) {
			halsUpdate(a, k, g, opts.Threads, tel)
			return 0, 0, nil
		},
	}, nil
}

// halsUpdate performs one sweep of column-wise HALS updates on factor a,
// parallel over rows (each row's update is independent given the shared
// K and G).
func halsUpdate(a, k, g *dense.Matrix, threads int, tel *par.Telemetry) {
	rank := a.Cols
	for f := 0; f < rank; f++ {
		gff := g.At(f, f)
		if gff <= 0 {
			gff = 1e-12
		}
		gCol := make([]float64, rank)
		for q := 0; q < rank; q++ {
			gCol[q] = g.At(q, f)
		}
		par.StaticT(tel, a.Rows, threads, func(tid, begin, end int) {
			for i := begin; i < end; i++ {
				row := a.Row(i)
				// (A·G(:,f))(i) = Σ_q A(i,q)·G(q,f).
				var ag float64
				for q := 0; q < rank; q++ {
					ag += row[q] * gCol[q]
				}
				v := row[f] + (k.At(i, f)-ag)/gff
				if v < 0 {
					v = 0
				}
				row[f] = v
			}
		})
	}
}
