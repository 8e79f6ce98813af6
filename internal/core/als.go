package core

import (
	"context"

	"aoadmm/internal/dense"
	"aoadmm/internal/obs"
	"aoadmm/internal/ooc"
	"aoadmm/internal/par"
	"aoadmm/internal/stats"
	"aoadmm/internal/tensor"
)

// ALSOptions configures the unconstrained CPD-ALS baseline.
type ALSOptions struct {
	// Rank is the CPD rank (required, > 0).
	Rank int
	// MaxOuterIters caps outer iterations (<= 0 means 200).
	MaxOuterIters int
	// Tol is the relative-error improvement threshold (<= 0 means 1e-6).
	Tol float64
	// Threads is the worker count (<= 0 means GOMAXPROCS).
	Threads int
	// Ridge adds λI to the normal equations for stability (0 disables;
	// a tiny jitter is still applied if the Gram product is singular).
	Ridge float64
	// Seed drives factor initialization.
	Seed int64
	// MemBudgetBytes echoes the admission layer's budget into Result.OOC
	// for out-of-core runs (0 = unlimited); not enforced here.
	MemBudgetBytes int64
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

// options maps the ALS settings onto the shared loop's options.
func (o ALSOptions) options() Options {
	return Options{
		Rank: o.Rank, MaxOuterIters: o.MaxOuterIters, Tol: o.Tol, Threads: o.Threads,
		Seed: o.Seed, MemBudgetBytes: o.MemBudgetBytes, CollectMetrics: o.CollectMetrics,
		Ctx: o.Ctx, OnIteration: o.OnIteration, Tracer: o.Tracer, KernelFormat: o.KernelFormat,
	}
}

// FactorizeALS computes an unconstrained CPD with alternating least squares:
// the AO loop of Algorithm 2 where each mode update is the exact
// normal-equations solve A_m = K·G⁻¹ rather than an ADMM iteration. It is
// the cross-check baseline: with no constraints AO-ADMM must reach a
// comparable fit.
func FactorizeALS(x *tensor.COO, opts ALSOptions) (*Result, error) {
	o := opts.options()
	spec, err := inMemorySpec(x, o)
	if err != nil {
		return nil, err
	}
	return factorize(spec, o, alsStep(opts.Ridge))
}

// FactorizeALSOOC runs the ALS baseline on a sharded on-disk tensor through
// the same loop as FactorizeALS, with each MTTKRP streamed shard-at-a-time.
// Shard I/O counters land in Result.OOC and the metrics report.
func FactorizeALSOOC(st *ooc.ShardedTensor, opts ALSOptions) (*Result, error) {
	o := opts.options()
	spec, err := oocSpec(st, o)
	if err != nil {
		return nil, err
	}
	return factorize(spec, o, alsStep(opts.Ridge))
}

// alsStep is the exact least-squares update A_m = K·(G + ridge·I)⁻¹, through
// a Cholesky factorization that adds diagonal jitter if G is singular.
func alsStep(ridge float64) stepBuilder {
	return func(*Options, []int, *stats.Metrics, *par.Telemetry) (modeStep, error) {
		return modeStep{
			solver: "ALS ",
			kernel: stats.KernelCholesky,
			label:  "als",
			update: func(_ int, a, k, g *dense.Matrix) (int, int64, error) {
				if ridge > 0 {
					g = dense.AddScaledIdentity(g, ridge)
				}
				ch, _, err := dense.NewCholeskyJitter(g, 0, 30)
				if err != nil {
					return 0, 0, err
				}
				a.CopyFrom(k)
				ch.SolveRows(a)
				return 0, 0, nil
			},
		}, nil
	}
}
