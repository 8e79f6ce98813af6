// Package core implements the outer AO loop (Algorithm 2 of the paper):
// cyclic per-mode updates, each consisting of a Gram product, an MTTKRP, and
// a block update, plus the convergence bookkeeping of §V-A and the dynamic
// factor-sparsity management of §IV-C.
//
// The block update is the only part that differs between solvers. AO-ADMM
// runs the inner ADMM; the unconstrained CPD-ALS cross-check (with no
// constraints, AO-ADMM and ALS minimize the same objective and must reach
// comparable fits) solves the normal equations exactly; the non-negative
// HALS baseline updates one column at a time. All three run through the one
// loop in factorize.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"aoadmm/internal/admm"
	"aoadmm/internal/blockmodel"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/faults"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/obs"
	"aoadmm/internal/ooc"
	"aoadmm/internal/par"
	"aoadmm/internal/perfmodel"
	"aoadmm/internal/prox"
	"aoadmm/internal/sparse"
	"aoadmm/internal/stats"
	"aoadmm/internal/tensor"
)

// Variant selects the inner ADMM formulation.
type Variant int

// Inner ADMM variants.
const (
	// Blocked is the paper's accelerated blockwise ADMM (§IV-B), the
	// default.
	Blocked Variant = iota
	// Baseline is the kernel-parallel ADMM with global convergence (§IV-A).
	Baseline
)

// String names the variant for logs and experiment output.
func (v Variant) String() string {
	if v == Baseline {
		return "base"
	}
	return "blocked"
}

// Structure selects the leaf-factor representation used during MTTKRP when a
// factor has gone sparse (§IV-C / Table II). The DENSE/CSR/CSR-H cost model
// behind StructAuto lives beside the kernel-format model in
// internal/perfmodel, which therefore owns the enum.
type Structure = perfmodel.Structure

// MTTKRP leaf-factor structures.
const (
	// StructDense never compresses factors (Table II's DENSE row).
	StructDense = perfmodel.StructDense
	// StructCSR stores sparse factors in CSR (Table II's CSR row).
	StructCSR = perfmodel.StructCSR
	// StructHybrid stores sparse factors in the hybrid dense+CSR form
	// (Table II's CSR-H row).
	StructHybrid = perfmodel.StructHybrid
	// StructAuto picks DENSE, CSR, or CSR-H per MTTKRP call from the leaf
	// factor's current sparsity profile (perfmodel.LeafModel, the paper's
	// §VI future-work item), in place of the SparseThreshold test.
	StructAuto = perfmodel.StructAuto
)

// ParseSpec maps the variant and structure names shared by the CLI and the
// daemon's job specs onto their enums. Variants: "" or "blocked", "base" or
// "baseline". Structures: "" or "csr", "dense", "hybrid" or "csr-h", "auto".
func ParseSpec(variant, structure string) (Variant, Structure, error) {
	var v Variant
	switch variant {
	case "", "blocked":
		v = Blocked
	case "base", "baseline":
		v = Baseline
	default:
		return 0, 0, fmt.Errorf("unknown variant %q (known: blocked, base)", variant)
	}
	var st Structure
	switch structure {
	case "", "csr":
		st = StructCSR
	case "dense":
		st = StructDense
	case "hybrid", "csr-h":
		st = StructHybrid
	case "auto":
		st = StructAuto
	default:
		return 0, 0, fmt.Errorf("unknown structure %q (known: dense, csr, hybrid, auto)", structure)
	}
	return v, st, nil
}

// DefaultMaxOuterIters matches the paper's cap of 200 outer iterations.
const DefaultMaxOuterIters = 200

// DefaultTol matches the paper's stopping rule: stop when the relative
// error improves by less than 1e-6.
const DefaultTol = 1e-6

// DefaultSparseThreshold is the density below which a factor "can be
// gainfully treated as sparse" (§V-E: 20%).
const DefaultSparseThreshold = 0.20

// Options configures a factorization.
type Options struct {
	// Rank is the CPD rank F (required, > 0).
	Rank int
	// Constraints holds one proximity operator per mode; a single-element
	// slice is broadcast to all modes; nil means unconstrained.
	Constraints []prox.Operator
	// Variant selects baseline or blocked inner ADMM.
	Variant Variant
	// MaxOuterIters caps outer iterations (<= 0 means 200, the paper's cap).
	MaxOuterIters int
	// Tol is the relative-error improvement threshold (<= 0 means 1e-6).
	Tol float64
	// Threads is the worker count (<= 0 means GOMAXPROCS).
	Threads int
	// BlockSize is the blocked-ADMM rows per block (<= 0 means 50).
	BlockSize int
	// InnerEps is the ADMM residual tolerance (<= 0 means 1e-2).
	InnerEps float64
	// InnerMaxIters caps ADMM inner iterations (<= 0 means 50).
	InnerMaxIters int
	// AdaptiveRho enables per-block penalty residual balancing in the
	// blocked inner solver (Boyd §3.4.1), accelerating blocks whose fixed
	// rho = trace(G)/F is poorly matched to their conditioning.
	AdaptiveRho bool
	// ExploitSparsity enables the dynamic factor-sparsity machinery of
	// §IV-C: factors whose density drops below SparseThreshold are imaged
	// into the chosen Structure before MTTKRP.
	ExploitSparsity bool
	// Structure selects the compressed representation. The zero value,
	// StructDense, never compresses; the CLI and daemon default to
	// StructCSR (see ParseSpec). StructAuto lets the leaf cost model choose
	// per MTTKRP call, overriding SparseThreshold.
	Structure Structure
	// SparseThreshold overrides the 20% density threshold (<= 0 means 0.20).
	SparseThreshold float64
	// SingleCSF, when set, builds ONE CSF tree (rooted at the shortest
	// mode, maximizing compression) and computes every mode's MTTKRP from
	// it with privatized accumulation — SPLATT's memory-efficient operating
	// point, roughly one third of the default one-tree-per-mode footprint
	// at the cost of extra reduction work on non-root modes. Only applies
	// to the CSF kernel format.
	SingleCSF bool
	// KernelFormat selects the MTTKRP backend: "" or "csf" (compressed
	// sparse fiber trees, the default), "alto" (the adaptive linearized
	// format of internal/alto), or "auto" (pick per tensor from the
	// perfmodel kernel cost model). Out-of-core runs check the name, but the
	// shard store's payload version picks the per-shard kernel (ALTO for
	// key-ordered shards, CSF for the column layout). Any other name is an
	// error — formats never fall back silently.
	KernelFormat string
	// EngineBuilder, when non-nil, constructs the in-memory MTTKRP engine
	// in place of the KernelFormat build — a hook for wrapping the native
	// engine (see EngineBuilder), not for adding formats. Ignored
	// out-of-core.
	EngineBuilder EngineBuilder
	// AutoBlockSize, when set, chooses the blocked-ADMM block size per mode
	// from the analytical model of internal/blockmodel (the paper's §VI
	// future-work item) instead of the fixed BlockSize.
	AutoBlockSize bool
	// InitFactors, when non-nil, seeds the factorization from the given
	// Kruskal tensor (deep-copied) instead of random factors — e.g. a
	// checkpoint written by CheckpointDir, or an ALS warm start. Shapes
	// must match the tensor and Rank.
	InitFactors *kruskal.Tensor
	// InitDuals, when non-nil alongside InitFactors, restores the per-mode
	// scaled ADMM dual variables (deep-copied) from a checkpoint. A resumed
	// single-threaded run with restored duals reproduces the uninterrupted
	// trajectory exactly; without them the duals restart at zero and the run
	// re-converges. Shapes must match the factors.
	InitDuals []*dense.Matrix
	// DualScale multiplies the restored InitDuals by a constant in (0, 1]
	// before the first sweep (0 or 1 = use them verbatim). Streaming refits
	// set it to the sliding-window decay applied to the base tensor since the
	// parent model trained, so the carried-over duals match the re-weighted
	// objective they warm-start; see docs/STREAMING.md.
	DualScale float64
	// StartIter anchors the outer-iteration counter when resuming: the loop
	// runs iterations StartIter+1 through MaxOuterIters, and OuterIters,
	// checkpoints, and trace points report cumulative iteration numbers. The
	// iteration budget is therefore shared across interruptions rather than
	// restarting from zero on every resume.
	StartIter int
	// PrevRelErr seeds the improvement-based stopping comparison when
	// resuming (the relative error at StartIter, from the checkpoint meta);
	// <= 0 means +Inf, i.e. a fresh run.
	PrevRelErr float64
	// Seed drives factor initialization (ignored with InitFactors).
	Seed int64
	// MaxTime stops the factorization after the given wall time (0 = no
	// limit). The current iterate is returned; Converged reports false.
	MaxTime time.Duration
	// Ctx, when non-nil, is an external stop signal checked at every outer
	// iteration boundary: once done, the loop stops before the next sweep
	// and the current iterate is returned with Converged false and Stopped
	// true. Cancellation is not an error — long-running services use it to
	// cancel jobs and still receive the partial factors (e.g. for a final
	// checkpoint).
	Ctx context.Context
	// OnIteration, when non-nil, is invoked after every outer iteration
	// with the current trace point. Returning false stops the run.
	OnIteration func(stats.TracePoint) bool
	// CheckpointDir, when non-empty, saves the current factors under this
	// directory every CheckpointEvery outer iterations (overwriting the
	// previous checkpoint). A failed save is retried on the next interval
	// rather than aborting the run.
	CheckpointDir string
	// CheckpointEvery is the checkpoint interval in outer iterations
	// (<= 0 means 10).
	CheckpointEvery int
	// CheckpointJobID and CheckpointAttempt are stamped into each
	// checkpoint's meta record so a recovering service can tie the on-disk
	// state back to the job (and attempt) that wrote it.
	CheckpointJobID   string
	CheckpointAttempt int
	// Faults is the optional fault-injection registry (internal/faults);
	// nil — the default — makes every hook point a no-op.
	Faults *faults.Injector
	// MemBudgetBytes is the memory budget the admission layer used when it
	// routed this run (0 = unlimited). The core solvers do not enforce it —
	// the out-of-core entry points shard-stream regardless — but it is
	// echoed into Result.OOC and the metrics report so a run's budget and
	// its tracked peak can be compared after the fact.
	MemBudgetBytes int64
	// CollectMetrics enables the fine-grained observability layer: per-mode
	// kernel timers, per-block ADMM convergence counters, scheduler load
	// telemetry, and the factor-sparsity timeline, returned in
	// Result.Metrics. Collection shards per thread and merges at fork-join
	// barriers; on a blocked-ADMM-bound fit (nell medium proxy, rank 25, 4
	// outer iterations, 2-vCPU host) it cost a median 2% over 8 alternating
	// on/off pairs, inside their run-to-run spread.
	CollectMetrics bool
	// Tracer, when non-nil, records spans into per-thread ring buffers:
	// outer iterations, per-mode kernels, ADMM blocks, scheduler chunks, and
	// OOC shard pipeline events, exportable as Chrome trace_event JSON
	// (obs.Tracer.WriteChrome, the -trace CLI flag). nil — the default —
	// keeps every instrumentation point a single nil check with zero
	// allocations; see docs/OBSERVABILITY.md.
	Tracer *obs.Tracer
}

func (o *Options) fill(order int) error {
	if o.Rank <= 0 {
		return fmt.Errorf("core: Rank must be positive, got %d", o.Rank)
	}
	cs, err := prox.Broadcast(o.Constraints, order)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	o.Constraints = cs
	if o.MaxOuterIters <= 0 {
		o.MaxOuterIters = DefaultMaxOuterIters
	}
	if o.DualScale < 0 || o.DualScale > 1 {
		return fmt.Errorf("core: DualScale must be in (0, 1], got %g", o.DualScale)
	}
	if o.Tol <= 0 {
		o.Tol = DefaultTol
	}
	if o.SparseThreshold <= 0 {
		o.SparseThreshold = DefaultSparseThreshold
	}
	return nil
}

// Result reports a completed factorization.
type Result struct {
	// Factors is the fitted Kruskal tensor.
	Factors *kruskal.Tensor
	// RelErr is the final relative error ‖X−M‖/‖X‖.
	RelErr float64
	// OuterIters is the number of outer iterations executed.
	OuterIters int
	// Converged reports whether the improvement tolerance was met before
	// the iteration cap or time budget.
	Converged bool
	// Stopped reports that the run was halted by Options.Ctx cancellation
	// rather than by convergence, the iteration cap, or the time budget.
	Stopped bool
	// Duals is the final per-mode scaled ADMM dual state, exposed so a
	// service can checkpoint full resume state (factors + duals) at
	// cancellation; nil for ALS/HALS runs, which carry no duals.
	Duals []*dense.Matrix
	// CheckpointErr is the error from the most recent checkpoint save (nil
	// when the last save succeeded or checkpointing was off). A failed save
	// is retried at the next interval, so a run can finish successfully with
	// a stale checkpoint; callers that rely on checkpoints should inspect
	// this field.
	CheckpointErr error
	// InnerIters is the total ADMM inner-iteration count across modes and
	// outer iterations (maximum block count for blocked runs).
	InnerIters int
	// RowIters is the total per-row inner-iteration work (Σ rows·iters).
	RowIters int64
	// Breakdown is the per-kernel wall-time split (Fig. 3).
	Breakdown *stats.Breakdown
	// Metrics is the fine-grained observability object (per-mode kernel
	// timers, ADMM block histogram, scheduler telemetry, sparsity
	// timeline); nil unless Options.CollectMetrics was set.
	Metrics *stats.Metrics
	// Trace is the convergence trajectory (Fig. 6).
	Trace *stats.Trace
	// OOC reports shard-streaming I/O and admission accounting; nil for
	// in-memory runs.
	OOC *stats.OOCReport
	// FactorDensities is the final per-mode factor density (Table II).
	FactorDensities []float64
	// SparseMTTKRPs counts MTTKRP invocations that used a compressed leaf
	// factor.
	SparseMTTKRPs int
	// KernelBackends names the MTTKRP backend that served each mode
	// ("csf", "csf-single", "alto", "ooc-csf", ...), as chosen by
	// KernelFormat or built by EngineBuilder.
	KernelBackends []string
}

// sparseImage caches one mode's compressed factor representation together
// with the factor version it was built from, so images are rebuilt only
// after the factor changes (§IV-C: construction costs O(I·F) and must be
// balanced against its MTTKRP savings).
type sparseImage struct {
	version int
	leaf    mttkrp.LeafFactor
	density float64
}

// engineSpec bundles what the shared loop needs to know about the data
// tensor without holding it: its shape, its norm, and how to compile the
// MTTKRP engine that will stand in for it. build may fail — e.g. an ALTO
// compile of a tensor too large to linearize, or an unknown format name.
type engineSpec struct {
	dims   []int
	normSq float64
	build  func() (Engine, error)
}

// inMemorySpec checks an in-memory tensor — the shared preconditions of the
// in-memory entry points — and describes it to the loop.
func inMemorySpec(x *tensor.COO, opts Options) (engineSpec, error) {
	if x.Order() < 2 {
		return engineSpec{}, fmt.Errorf("core: tensor must have >= 2 modes")
	}
	if x.NNZ() == 0 {
		return engineSpec{}, fmt.Errorf("core: empty tensor")
	}
	if err := x.Validate(); err != nil {
		return engineSpec{}, fmt.Errorf("core: invalid tensor: %w", err)
	}
	return engineSpec{
		dims:   x.Dims,
		normSq: x.NormSq(),
		build:  func() (Engine, error) { return newEngine(x, opts) },
	}, nil
}

// oocSpec checks a sharded tensor — the shared preconditions of the
// out-of-core entry points; the per-shard invariants were already checked by
// ooc.Open — and describes it to the loop.
func oocSpec(st *ooc.ShardedTensor, opts Options) (engineSpec, error) {
	if st == nil {
		return engineSpec{}, fmt.Errorf("core: nil sharded tensor")
	}
	if st.Order() < 2 {
		return engineSpec{}, fmt.Errorf("core: tensor must have >= 2 modes")
	}
	if st.NNZ() == 0 {
		return engineSpec{}, fmt.Errorf("core: empty tensor")
	}
	return engineSpec{
		dims:   st.Dims(),
		normSq: st.NormSq(),
		build: func() (Engine, error) {
			return newOOCEngine(st, opts.MemBudgetBytes, opts.Tracer, opts.KernelFormat), nil
		},
	}, nil
}

// Factorize runs AO-ADMM (Algorithm 2) on an in-memory tensor.
func Factorize(x *tensor.COO, opts Options) (*Result, error) {
	spec, err := inMemorySpec(x, opts)
	if err != nil {
		return nil, err
	}
	return factorize(spec, opts, admmStep)
}

// FactorizeOOC runs AO-ADMM on a sharded on-disk tensor, streaming shards
// through the same outer loop as Factorize: per mode, shards are loaded one
// at a time (prefetched ahead on a background goroutine) and each one's
// product is added into the mode's MTTKRP by the kernel its payload version
// selects. ExploitSparsity and SingleCSF are inert out-of-core — there is no
// resident tree to image against. Shard I/O
// counters land in Result.OOC and the metrics report.
func FactorizeOOC(st *ooc.ShardedTensor, opts Options) (*Result, error) {
	spec, err := oocSpec(st, opts)
	if err != nil {
		return nil, err
	}
	return factorize(spec, opts, admmStep)
}

// modeStep is the block update of the AO loop (Algorithm 2, lines 6/10/14):
// given mode m's MTTKRP K and the Hadamard Gram product G of the other
// modes, it overwrites the factor A_m. It is the only part of the loop that
// differs between AO-ADMM, ALS and HALS.
type modeStep struct {
	// solver tags error messages ("ALS ", "HALS "; empty for AO-ADMM).
	solver string
	// kernel and label name the metrics kernel and pprof label the update is
	// charged to; its wall time always lands in the ADMM breakdown phase.
	kernel stats.Kernel
	label  string
	// update overwrites a and returns the inner iterations it ran (the
	// maximum block count for blocked ADMM) and the per-row work Σ rows·iters.
	update func(m int, a, k, g *dense.Matrix) (iters int, rowIters int64, err error)
	// duals is the step's scaled dual state, reported in Result.Duals and
	// checkpoints; nil for steps without one.
	duals []*dense.Matrix
}

// stepBuilder makes a run's step from its filled options, once the run's
// metrics collector and scheduler telemetry (both nil when off) exist.
type stepBuilder func(opts *Options, dims []int, met *stats.Metrics, tel *par.Telemetry) (modeStep, error)

// admmStep is AO-ADMM's update: the blocked inner ADMM of §IV-B (block size
// from Options or, under AutoBlockSize, from internal/blockmodel), or the
// baseline of §IV-A, each warm-started from the mode's scaled duals.
func admmStep(opts *Options, dims []int, met *stats.Metrics, tel *par.Telemetry) (modeStep, error) {
	if opts.InitDuals != nil {
		if err := checkInitDuals(opts.InitDuals, dims, opts.Rank); err != nil {
			return modeStep{}, err
		}
	}
	duals := make([]*dense.Matrix, len(dims))
	for m := range duals {
		if opts.InitDuals != nil {
			duals[m] = opts.InitDuals[m].Clone()
			if opts.DualScale > 0 && opts.DualScale != 1 {
				dense.Scale(duals[m], opts.DualScale)
			}
		} else {
			duals[m] = dense.New(dims[m], opts.Rank)
		}
	}
	ws := &admm.Workspace{}
	cfg := admm.Config{
		Eps:         opts.InnerEps,
		MaxIters:    opts.InnerMaxIters,
		Threads:     opts.Threads,
		BlockSize:   opts.BlockSize,
		AdaptiveRho: opts.AdaptiveRho,
		Telem:       tel,
	}
	run := admm.RunBlocked
	if opts.Variant == Baseline {
		run = admm.Run
	}
	return modeStep{
		kernel: stats.KernelADMMInner,
		label:  "admm",
		duals:  duals,
		update: func(m int, a, k, g *dense.Matrix) (int, int64, error) {
			cfg.Prox = opts.Constraints[m]
			if opts.AutoBlockSize && opts.Variant != Baseline {
				cfg.BlockSize = blockmodel.DefaultModel().Choose(dims[m], opts.Rank, par.Threads(opts.Threads))
			}
			st, err := run(a, duals[m], k, g, ws, cfg)
			if err != nil {
				return 0, 0, err
			}
			met.AddKernel(stats.KernelCholesky, m, st.Timing.Cholesky)
			met.AddKernel(stats.KernelProx, m, st.Timing.Prox)
			met.RecordADMMSolve(st.BlockIters, st.RhoAdaptations)
			return st.Iterations, st.RowIterations, nil
		},
	}, nil
}

// factorize is the engine-agnostic AO outer loop every solver runs;
// newStep supplies the per-mode update.
func factorize(spec engineSpec, opts Options, newStep stepBuilder) (*Result, error) {
	order := len(spec.dims)
	if err := opts.fill(order); err != nil {
		return nil, err
	}

	bd := stats.NewBreakdown()
	tr := opts.Tracer
	var met *stats.Metrics
	var tel *par.Telemetry
	if opts.CollectMetrics {
		met = stats.NewMetrics()
	}
	if opts.CollectMetrics || tr != nil {
		// Telemetry is also the tracer's carrier into the fork-join regions,
		// so tracing alone turns the timed scheduler paths on.
		tel = par.NewTelemetry(par.Threads(opts.Threads))
		tel.SetTracer(tr)
	}
	start := time.Now()

	// Compile the MTTKRP engine: CSF trees or the ALTO linearized format
	// for in-memory runs, the shard streamer for out-of-core runs.
	var eng Engine
	var buildErr error
	timedKernel(tr, bd, stats.PhaseSetup, met, stats.KernelCSFSetup, stats.ModeNone, func() {
		eng, buildErr = spec.build()
	})
	if buildErr != nil {
		return nil, buildErr
	}

	var model *kruskal.Tensor
	xNormSq := spec.normSq
	if opts.InitFactors != nil {
		if err := checkInitShape(opts.InitFactors, spec.dims, opts.Rank); err != nil {
			return nil, err
		}
		model = opts.InitFactors.Clone()
	} else {
		model = kruskal.Init(spec.dims, opts.Rank, opts.Seed, xNormSq, opts.Threads)
	}
	step, err := newStep(&opts, spec.dims, met, tel)
	if err != nil {
		return nil, err
	}
	grams := make([]*dense.Matrix, order)
	versions := make([]int, order)
	images := make([]sparseImage, order)
	for m := 0; m < order; m++ {
		grams[m] = dense.Gram(model.Factors[m], opts.Threads)
	}
	kmat := dense.New(maxDim(spec.dims), opts.Rank)

	if opts.StartIter < 0 {
		opts.StartIter = 0
	}
	res := &Result{
		Factors:    model,
		Duals:      step.duals,
		Breakdown:  bd,
		Metrics:    met,
		Trace:      &stats.Trace{},
		RelErr:     1,
		OuterIters: opts.StartIter,
	}
	if opts.PrevRelErr > 0 {
		res.RelErr = opts.PrevRelErr
	}

	prevErr := math.Inf(1)
	if opts.PrevRelErr > 0 {
		prevErr = opts.PrevRelErr
	}
	for outer := opts.StartIter + 1; outer <= opts.MaxOuterIters; outer++ {
		if stopRequested(opts.Ctx) {
			res.Stopped = true
			break
		}
		res.OuterIters = outer
		iterStart := time.Now()
		iterInner := 0
		var lastK *dense.Matrix
		var lastMode int
		for m := 0; m < order; m++ {
			// G = ∗_{n≠m} AₙᵀAₙ (Algorithm 2, lines 4/8/12).
			var g *dense.Matrix
			timedKernel(tr, bd, stats.PhaseOther, met, stats.KernelGram, m, func() {
				g = dense.GramProduct(grams, m)
			})

			// K = MTTKRP (lines 5/9/13), with the leaf factor possibly in a
			// compressed structure. Image construction is charged to the
			// MTTKRP phase: it exists only to serve this kernel, and the
			// paper's Table II times include the conversion overhead.
			k := kmat.RowBlock(0, spec.dims[m])
			var leaf mttkrp.LeafFactor
			var mttkrpErr error
			timedKernel(tr, bd, stats.PhaseMTTKRP, met, stats.KernelMTTKRP, m, func() {
				withKernelLabels("mttkrp", m, func() {
					leaf = leafFor(opts, eng.LeafTree(m), model, versions, images, res)
					mttkrpErr = eng.MTTKRP(m, model.Factors, k, leaf,
						mttkrp.Options{Threads: opts.Threads, Telem: tel})
				})
			})
			if mttkrpErr != nil {
				return nil, fmt.Errorf("core: %smode %d outer %d: %w", step.solver, m, outer, mttkrpErr)
			}

			// The block update (lines 6/10/14).
			var iters int
			var rowIters int64
			var err error
			timedKernel(tr, bd, stats.PhaseADMM, met, step.kernel, m, func() {
				withKernelLabels(step.label, m, func() {
					iters, rowIters, err = step.update(m, model.Factors[m], k, g)
				})
			})
			if err != nil {
				return nil, fmt.Errorf("core: %smode %d outer %d: %w", step.solver, m, outer, err)
			}
			versions[m]++
			iterInner += iters
			res.RowIters += rowIters

			timedKernel(tr, bd, stats.PhaseOther, met, stats.KernelGram, m, func() {
				grams[m] = dense.Gram(model.Factors[m], opts.Threads)
			})
			lastK, lastMode = k, m
		}
		res.InnerIters += iterInner

		// Relative error from the last mode's MTTKRP: K is independent of
		// that mode's factor, so ⟨X, M⟩ = Σ K∘A_m holds for the updated
		// factor (§V-A, computed without another tensor pass).
		var relErr float64
		timedKernel(tr, bd, stats.PhaseOther, met, stats.KernelFit, stats.ModeNone, func() {
			inner := kruskal.InnerWithMTTKRP(lastK, model.Factors[lastMode])
			mNormSq := kruskal.NormSqFromGrams(grams)
			relErr = kruskal.RelErr(xNormSq, inner, mNormSq)
		})
		res.RelErr = relErr

		// Factor-sparsity timeline: density per mode after this outer
		// iteration, plus the structure of the mode's current MTTKRP image
		// (DENSE when no compressed image is live). The density scan is
		// metrics-only cost, comparable to one Gram pass per mode.
		if met != nil {
			for m := 0; m < order; m++ {
				met.RecordDensity(outer, m, dense.Density(model.Factors[m], 0),
					structureLabel(images[m].leaf))
			}
		}

		point := stats.TracePoint{
			Iteration:  outer,
			Elapsed:    time.Since(start),
			RelErr:     relErr,
			InnerIters: iterInner,
		}
		res.Trace.Append(point)
		tr.Emit("outer", "outer_iter", stats.ModeNone, obs.TIDDriver, int64(outer), iterStart, time.Since(iterStart))
		// The iteration that ends the loop by the cap or by convergence saves
		// nothing: the caller gets the same state from Result, and a daemon
		// job registers it and deletes the checkpoint. A stop through
		// OnIteration, cancellation or MaxTime keeps its save.
		converged := math.Abs(prevErr-relErr) < opts.Tol
		final := outer == opts.MaxOuterIters || converged
		if opts.CheckpointDir != "" && !final {
			every := opts.CheckpointEvery
			if every <= 0 {
				every = 10
			}
			if outer%every == 0 {
				if err := opts.Faults.Fire(faults.CheckpointSave); err != nil {
					res.CheckpointErr = fmt.Errorf("checkpoint %s at iteration %d: %w",
						opts.CheckpointDir, outer, err)
				} else {
					res.CheckpointErr = kruskal.SaveCheckpointAtomic(opts.CheckpointDir, kruskal.Checkpoint{
						Factors: model,
						Duals:   step.duals,
						Meta: &kruskal.CheckpointMeta{
							Iteration: outer, RelErr: relErr,
							JobID: opts.CheckpointJobID, Attempt: opts.CheckpointAttempt,
							SavedUnixNano: time.Now().UnixNano(),
						},
					})
				}
			}
		}
		if opts.OnIteration != nil && !opts.OnIteration(point) {
			break
		}
		if converged {
			res.Converged = true
			break
		}
		prevErr = relErr
		if opts.MaxTime > 0 && time.Since(start) > opts.MaxTime {
			break
		}
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

// stopRequested reports whether the optional cancellation context is done.
// A nil context never stops the run, so the library path stays allocation-
// and syscall-free when no service is driving it.
func stopRequested(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// recordScheduler folds the run's accumulated per-thread dispatch counters
// into the metrics object (called once, after the last barrier).
func recordScheduler(met *stats.Metrics, tel *par.Telemetry) {
	if met == nil || tel == nil {
		return
	}
	for t := 0; t < tel.NumThreads(); t++ {
		s := tel.Stat(t)
		met.RecordSchedulerThread(t, s.Chunks, s.Busy)
	}
}

// leafFor decides the leaf-factor representation for one MTTKRP call: the
// tree's leaf-level factor is compressed when sparsity exploitation is on
// and its density is below the threshold (under StructAuto, when the leaf
// cost model says so); otherwise the dense matrix is used directly (nil →
// dense inside mttkrp.Compute).
func leafFor(opts Options, tree *csf.Tensor, model *kruskal.Tensor, versions []int, images []sparseImage, res *Result) mttkrp.LeafFactor {
	if tree == nil || !opts.ExploitSparsity {
		return nil
	}
	if opts.Structure == StructDense {
		return nil
	}
	leafMode := tree.Perm[tree.Order()-1]
	img := &images[leafMode]
	if img.leaf == nil || img.version != versions[leafMode] {
		f := model.Factors[leafMode]
		density := dense.Density(f, 0)
		img.version = versions[leafMode]
		img.density = density

		structure := opts.Structure
		if structure == StructAuto {
			structure = perfmodel.DefaultLeafModel().Choose(perfmodel.LeafProfile{
				Rank:             f.Cols,
				ModeLength:       f.Rows,
				Accesses:         int64(tree.NNZ()),
				Density:          density,
				DenseColumnShare: denseColumnShare(f),
			})
		} else if density >= opts.SparseThreshold {
			structure = StructDense
		}
		switch structure {
		case StructDense:
			img.leaf = nil
		case StructHybrid:
			img.leaf = sparse.FromDenseHybrid(f, 0)
		default:
			img.leaf = sparse.FromDense(f, 0)
		}
	}
	if img.leaf != nil {
		res.SparseMTTKRPs++
	}
	return img.leaf
}

// denseColumnShare returns the fraction of a factor's non-zeros that live
// in columns denser than the column average — the quantity the leaf cost
// model uses to judge the CSR-H panel's usefulness.
func denseColumnShare(f *dense.Matrix) float64 {
	colNNZ := make([]int, f.Cols)
	total := 0
	for i := 0; i < f.Rows; i++ {
		row := f.Row(i)
		for j, v := range row {
			if v != 0 {
				colNNZ[j]++
				total++
			}
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(f.Cols)
	inDense := 0
	for _, c := range colNNZ {
		if float64(c) > mean {
			inDense += c
		}
	}
	return float64(inDense) / float64(total)
}

// checkInitDuals validates resumed dual variables against the tensor shape.
func checkInitDuals(duals []*dense.Matrix, dims []int, rank int) error {
	if len(duals) != len(dims) {
		return fmt.Errorf("core: %d InitDuals for order-%d tensor", len(duals), len(dims))
	}
	for m, d := range duals {
		if d == nil {
			return fmt.Errorf("core: InitDuals mode %d is nil", m)
		}
		if d.Rows != dims[m] || d.Cols != rank {
			return fmt.Errorf("core: InitDuals mode %d is %dx%d, want %dx%d",
				m, d.Rows, d.Cols, dims[m], rank)
		}
	}
	return nil
}

// checkInitShape validates a user-provided initialization.
func checkInitShape(k *kruskal.Tensor, dims []int, rank int) error {
	if k.Order() != len(dims) {
		return fmt.Errorf("core: InitFactors order %d != tensor order %d", k.Order(), len(dims))
	}
	if k.Rank() != rank {
		return fmt.Errorf("core: InitFactors rank %d != Rank %d", k.Rank(), rank)
	}
	for m, f := range k.Factors {
		if f.Rows != dims[m] {
			return fmt.Errorf("core: InitFactors mode %d has %d rows, tensor needs %d", m, f.Rows, dims[m])
		}
	}
	return nil
}

func maxDim(dims []int) int {
	m := 0
	for _, d := range dims {
		if d > m {
			m = d
		}
	}
	return m
}
