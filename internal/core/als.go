package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"aoadmm/internal/dense"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/mttkrp"
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

// FactorizeALS computes an unconstrained CPD with alternating least squares:
// the AO loop of Algorithm 2 where each mode update is the exact
// normal-equations solve A_m = K·G⁻¹ rather than an ADMM iteration. It is
// the cross-check baseline: with no constraints AO-ADMM must reach a
// comparable fit.
func FactorizeALS(x *tensor.COO, opts ALSOptions) (*Result, error) {
	if x.Order() < 2 {
		return nil, fmt.Errorf("core: tensor must have >= 2 modes")
	}
	if x.NNZ() == 0 {
		return nil, fmt.Errorf("core: empty tensor")
	}
	if err := x.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid tensor: %w", err)
	}
	return factorizeALS(engineSpec{
		dims:   x.Dims,
		normSq: x.NormSq(),
		build: func() (Engine, error) {
			return buildInMemoryEngine(x, opts.KernelFormat, false, opts.Rank, opts.Threads)
		},
	}, opts)
}

// FactorizeALSOOC runs the ALS baseline on a sharded on-disk tensor through
// the same loop as FactorizeALS, with each MTTKRP streamed shard-at-a-time.
// Shard I/O counters land in Result.OOC and the metrics report.
func FactorizeALSOOC(st *ooc.ShardedTensor, opts ALSOptions) (*Result, error) {
	if err := validateSharded(st); err != nil {
		return nil, err
	}
	return factorizeALS(engineSpec{
		dims:   st.Dims(),
		normSq: st.NormSq(),
		build: func() (Engine, error) {
			return newOOCEngine(st, opts.Rank, opts.MemBudgetBytes, opts.Tracer, opts.KernelFormat), nil
		},
	}, opts)
}

// factorizeALS is the engine-agnostic ALS outer loop.
func factorizeALS(spec engineSpec, opts ALSOptions) (*Result, error) {
	order := len(spec.dims)
	if opts.Rank <= 0 {
		return nil, fmt.Errorf("core: Rank must be positive, got %d", opts.Rank)
	}
	if opts.MaxOuterIters <= 0 {
		opts.MaxOuterIters = DefaultMaxOuterIters
	}
	if opts.Tol <= 0 {
		opts.Tol = DefaultTol
	}

	bd := stats.NewBreakdown()
	tr := opts.Tracer
	var met *stats.Metrics
	var tel *par.Telemetry
	if opts.CollectMetrics {
		met = stats.NewMetrics()
	}
	if opts.CollectMetrics || tr != nil {
		tel = par.NewTelemetry(par.Threads(opts.Threads))
		tel.SetTracer(tr)
	}
	start := time.Now()
	var eng Engine
	var buildErr error
	timedKernel(tr, bd, stats.PhaseSetup, met, stats.KernelCSFSetup, stats.ModeNone, func() {
		eng, buildErr = spec.build()
	})
	if buildErr != nil {
		return nil, buildErr
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	model := kruskal.Random(spec.dims, opts.Rank, rng)
	xNormSq := spec.normSq
	scaleInit(model, xNormSq, opts.Threads)
	grams := make([]*dense.Matrix, order)
	for m := 0; m < order; m++ {
		grams[m] = dense.Gram(model.Factors[m], opts.Threads)
	}
	kmat := dense.New(maxDim(spec.dims), opts.Rank)

	res := &Result{Factors: model, Breakdown: bd, Metrics: met, Trace: &stats.Trace{}, RelErr: 1}

	prevErr := math.Inf(1)
	for outer := 1; outer <= opts.MaxOuterIters; outer++ {
		if stopRequested(opts.Ctx) {
			res.Stopped = true
			break
		}
		res.OuterIters = outer
		iterStart := time.Now()
		var lastK *dense.Matrix
		var lastMode int
		for m := 0; m < order; m++ {
			var g *dense.Matrix
			timedKernel(tr, bd, stats.PhaseOther, met, stats.KernelGram, m, func() {
				g = gramProduct(grams, m)
				if opts.Ridge > 0 {
					g = dense.AddScaledIdentity(g, opts.Ridge)
				}
			})
			k := kmat.RowBlock(0, spec.dims[m])
			var mttkrpErr error
			timedKernel(tr, bd, stats.PhaseMTTKRP, met, stats.KernelMTTKRP, m, func() {
				withKernelLabels("mttkrp", m, func() {
					mttkrpErr = eng.MTTKRP(m, model.Factors, k, nil,
						mttkrp.Options{Threads: opts.Threads, Telem: tel})
				})
			})
			if mttkrpErr != nil {
				return nil, fmt.Errorf("core: ALS mode %d outer %d: %w", m, outer, mttkrpErr)
			}
			var solveErr error
			timedKernel(tr, bd, stats.PhaseADMM, met, stats.KernelCholesky, m, func() {
				ch, _, err := dense.NewCholeskyJitter(g, 0, 30)
				if err != nil {
					solveErr = err
					return
				}
				model.Factors[m].CopyFrom(k)
				ch.SolveRows(model.Factors[m])
			})
			if solveErr != nil {
				return nil, fmt.Errorf("core: ALS mode %d outer %d: %w", m, outer, solveErr)
			}
			timedKernel(tr, bd, stats.PhaseOther, met, stats.KernelGram, m, func() {
				grams[m] = dense.Gram(model.Factors[m], opts.Threads)
			})
			lastK, lastMode = k, m
		}

		var relErr float64
		timedKernel(tr, bd, stats.PhaseOther, met, stats.KernelFit, stats.ModeNone, func() {
			inner := kruskal.InnerWithMTTKRP(lastK, model.Factors[lastMode])
			relErr = kruskal.RelErr(xNormSq, inner, kruskal.NormSqFromGrams(grams))
		})
		res.RelErr = relErr
		if met != nil {
			for m := 0; m < order; m++ {
				met.RecordDensity(outer, m, dense.Density(model.Factors[m], 0), "DENSE")
			}
		}
		point := stats.TracePoint{Iteration: outer, Elapsed: time.Since(start), RelErr: relErr}
		res.Trace.Append(point)
		tr.Emit("outer", "outer_iter", stats.ModeNone, obs.TIDDriver, int64(outer), iterStart, time.Since(iterStart))
		if opts.OnIteration != nil && !opts.OnIteration(point) {
			break
		}
		if math.Abs(prevErr-relErr) < opts.Tol {
			res.Converged = true
			break
		}
		prevErr = relErr
	}

	res.FactorDensities = make([]float64, order)
	for m := 0; m < order; m++ {
		res.FactorDensities[m] = dense.Density(model.Factors[m], 0)
	}
	recordScheduler(met, tel)
	res.KernelBackends = backendNames(eng, order)
	met.SetBackends(res.KernelBackends)
	if r := eng.OOCReport(); r != nil {
		res.OOC = r
		met.SetOOC(r)
	}
	return res, nil
}
