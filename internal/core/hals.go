package core

import (
	"context"

	"aoadmm/internal/dense"
	"aoadmm/internal/obs"
	"aoadmm/internal/par"
	"aoadmm/internal/stats"
	"aoadmm/internal/tensor"
)

// HALSOptions configures the non-negative CP-HALS baseline.
type HALSOptions struct {
	// Rank is the CPD rank (required, > 0).
	Rank int
	// MaxOuterIters caps outer iterations (<= 0 means 200).
	MaxOuterIters int
	// Tol is the relative-error improvement threshold (<= 0 means 1e-6).
	Tol float64
	// Threads is the worker count (<= 0 means GOMAXPROCS).
	Threads int
	// Seed drives factor initialization.
	Seed int64
	// CollectMetrics enables fine-grained per-mode kernel timers, scheduler
	// telemetry, and the density timeline on Result.Metrics.
	CollectMetrics bool
	// Ctx, when non-nil, stops the run at the next outer-iteration boundary
	// once done; the current iterate is returned with Stopped set.
	Ctx context.Context
	// OnIteration, when non-nil, is invoked after every outer iteration
	// with the current trace point. Returning false stops the run.
	OnIteration func(stats.TracePoint) bool
	// Tracer, when non-nil, records outer-iteration, kernel, and scheduler
	// spans exactly as Options.Tracer does for AO-ADMM runs.
	Tracer *obs.Tracer
	// KernelFormat selects the MTTKRP backend exactly as Options.KernelFormat
	// does for AO-ADMM runs: "", "csf", "alto", or "auto"; unknown names
	// fail loudly.
	KernelFormat string
}

// options maps the HALS settings onto the shared loop's options.
func (o HALSOptions) options() Options {
	return Options{
		Rank: o.Rank, MaxOuterIters: o.MaxOuterIters, Tol: o.Tol, Threads: o.Threads,
		Seed: o.Seed, CollectMetrics: o.CollectMetrics, Ctx: o.Ctx,
		OnIteration: o.OnIteration, Tracer: o.Tracer, KernelFormat: o.KernelFormat,
	}
}

// FactorizeHALS computes a non-negative CPD with hierarchical alternating
// least squares (Cichocki & Phan — the paper's related work [5]): each
// factor column is updated in closed form,
//
//	A(:,f) ← max(0, A(:,f) + (K(:,f) − A·G(:,f)) / G(f,f)),
//
// where K is the mode's MTTKRP and G the Hadamard Gram product. HALS is the
// classical fast local method for non-negative factorizations and serves as
// an algorithmic baseline for AO-ADMM: both share the MTTKRP/Gram substrate,
// so their convergence per unit work is directly comparable.
func FactorizeHALS(x *tensor.COO, opts HALSOptions) (*Result, error) {
	o := opts.options()
	spec, err := inMemorySpec(x, o)
	if err != nil {
		return nil, err
	}
	return factorize(spec, o, halsStep)
}

// halsStep is the HALS update: one halsUpdate sweep over the mode's columns.
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
