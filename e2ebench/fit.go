package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"aoadmm"
	"aoadmm/internal/core"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/obs"
	"aoadmm/internal/ooc"
	"aoadmm/internal/stats"
	"aoadmm/internal/tensor"
)

// keepFrac is the share of a proxy's non-zeros each seed's input keeps. The
// proxy's planted model is the same for every seed and only the observed
// entries change, so seeds vary the input without changing how hard the
// problem is: fit quality and solver work stay comparable across seeds.
const keepFrac = 0.9

// fixedIters, used as the improvement tolerance, never stops a fit early, so
// every rep runs its full iteration budget and does the same work.
const fixedIters = 1e-300

// setupReps is how many times a workload repeats a set-up that happens
// outside the solver call; setup_s is the median.
const setupReps = 7

// oocBudget is the out-of-core memory budget: about a sixth of the patents
// proxy's estimated in-memory footprint, so every MTTKRP streams shards.
const oocBudget = 16 << 20

// parityTol is how far a sharded or distributed fit's relative error may sit
// from the single-node in-memory fit of the same input, seed and iterations.
const parityTol = 1e-9

// input returns the workload's tensor: the named proxy at the given scale,
// with a seed-chosen keepFrac of its non-zeros.
func input(name string, scale aoadmm.Scale, seed int64) (*aoadmm.Tensor, error) {
	x, err := aoadmm.Dataset(name, scale)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	out := aoadmm.NewTensor(x.Dims, int(float64(x.NNZ())*keepFrac)+1)
	coord := make([]int, x.Order())
	for p := 0; p < x.NNZ(); p++ {
		if rng.Float64() >= keepFrac {
			continue
		}
		for m := range coord {
			coord[m] = int(x.Inds[m][p])
		}
		out.Append(coord, x.Vals[p])
	}
	return out, nil
}

// fitSpec is one fit workload's solver configuration: non-negative AO-ADMM
// with the library's blocked variant and defaults, at a fixed iteration
// count.
type fitSpec struct {
	dataset   string
	rank      int
	iters     int
	blockSize int // 0 = library default
}

var (
	// fit-patents: MTTKRP-bound — over three quarters of the iterations and,
	// at 40 iterations, about 60% of the call including the CSF build.
	patentsFit = fitSpec{dataset: "patents", rank: 50, iters: 40}
	// fit-nell: blocked-ADMM-bound (over four fifths of the fit), the
	// no-change control for kernel work. Rank 25 and four iterations keep a
	// rep near 2.5 s so a run holds several.
	nellFit = fitSpec{dataset: "nell", rank: 25, iters: 4}
	// ooc-patents: fit-patents' input streamed from shards; eight iterations
	// keep a rep near 4 s.
	oocFit = fitSpec{dataset: "patents", rank: 50, iters: 8}
)

func (s fitSpec) options(seed int64) aoadmm.Options {
	return aoadmm.Options{
		Rank:          s.rank,
		Constraints:   []aoadmm.Constraint{aoadmm.NonNegative()},
		MaxOuterIters: s.iters,
		Tol:           fixedIters,
		BlockSize:     s.blockSize,
		Seed:          seed,
	}
}

// fitRun is one timed solver call, reduced to what the report needs so reps
// do not keep factors or CSF trees alive while later reps run.
type fitRun struct {
	wall   time.Duration
	setup  time.Duration
	iters  []time.Duration // wall time of each outer iteration
	relErr float64
	traced bool
	layers map[string]float64 // traced reps only
}

// repeat runs op until the run's budget is spent: at least minReps times,
// and never starting a rep that the mean rep time so far says would end past
// the budget.
func repeat(rc *runCtx, minReps int, op func(rep int) error) error {
	start := time.Now()
	for rep := 0; ; rep++ {
		if el := time.Since(start); rep >= minReps && el+el/time.Duration(rep) > rc.budget {
			return nil
		}
		// Each rep starts from a collected heap, as a fresh caller would.
		runtime.GC()
		if err := op(rep); err != nil {
			return err
		}
	}
}

// minReps is the smallest rep count a fit workload measures: three untraced
// reps, or two untraced and two traced ones on a traced run, which
// alternates them.
func (rc *runCtx) minReps() int {
	if rc.traced {
		return 4
	}
	return 3
}

// tracedRep reports whether rep is one of a traced run's traced reps.
func (rc *runCtx) tracedRep(rep int) bool { return rc.traced && rep%2 == 1 }

// timeFit runs solve once, recording per-iteration wall times through
// OnIteration, and checks the output. A traced rep also collects the
// solver's metrics, emits bench-side spans, and — given an engine probe —
// times every MTTKRP call through it.
func timeFit(rc *runCtx, rep int, spec fitSpec, opts aoadmm.Options, traced bool, probe *engineProbe, solve func(aoadmm.Options) (*aoadmm.Result, error)) (fitRun, error) {
	var elapsed []time.Duration
	opts.OnIteration = func(p aoadmm.TracePoint) bool {
		elapsed = append(elapsed, p.Elapsed)
		return true
	}
	opts.CollectMetrics = traced
	if probe != nil {
		opts.EngineBuilder = probe.builder
	}
	start := time.Now()
	res, err := solve(opts)
	wall := time.Since(start)
	if err != nil {
		return fitRun{}, err
	}
	setup := res.Breakdown.Get(stats.PhaseSetup)
	r := fitRun{wall: wall, setup: setup, iters: iterTimes(elapsed, setup), relErr: res.RelErr, traced: traced}
	checkFit(rc, res, spec)
	if traced {
		rc.tracer.Emit("bench", "fit", stats.ModeNone, obs.TIDDriver, int64(rep), start, wall)
		at := start.Add(r.setup)
		for i, d := range r.iters {
			rc.tracer.Emit("bench", "outer_iter", stats.ModeNone, obs.TIDDriver, int64(i+1), at, d)
			at = at.Add(d)
		}
		r.layers = fitLayers(rc, r, res, probe)
	}
	return r, nil
}

// iterTimes turns the elapsed times OnIteration reports into per-iteration
// wall times; the first iteration starts at from, after the set-up.
func iterTimes(elapsed []time.Duration, from time.Duration) []time.Duration {
	out := make([]time.Duration, len(elapsed))
	for i, e := range elapsed {
		out[i] = e - from
		from = e
	}
	return out
}

// checkFit verifies one rep's output: the full iteration budget ran, the
// relative error is a finite value in (0, 1], and every factor entry is
// finite and non-negative, as the constraint requires.
func checkFit(rc *runCtx, res *aoadmm.Result, spec fitSpec) {
	switch {
	case res.OuterIters != spec.iters:
		rc.check(false, "ran %d outer iterations, want %d", res.OuterIters, spec.iters)
	case !(res.RelErr > 0 && res.RelErr <= 1):
		rc.check(false, "relative error %v outside (0, 1]", res.RelErr)
	default:
		rc.check(factorsFeasible(res.Factors.Factors), "factors contain negative or non-finite entries")
	}
}

func factorsFeasible(factors []*dense.Matrix) bool {
	for _, f := range factors {
		for i := 0; i < f.Rows; i++ {
			if !rowFeasible(f.Row(i)) {
				return false
			}
		}
	}
	return true
}

// rowFeasible reports whether every entry is finite and non-negative.
func rowFeasible(row []float64) bool {
	for _, v := range row {
		if !(v >= 0) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// checkParity counts one parity check: relerr against a reference fit.
func checkParity(rc *runCtx, what string, got, want float64) {
	d := math.Abs(got - want)
	rc.logf("  parity: %s relerr %.12f vs single-node in-memory %.12f (|diff| %.3g, tolerance %g)", what, got, want, d, parityTol)
	rc.check(d <= parityTol, "%s relerr %v differs from the in-memory fit's %v by %g > %g", what, got, want, d, parityTol)
}

// reportFitE2E sets the end-to-end metrics of a fit workload from its
// untraced reps. setups, when non-nil, is the set-up sample of a workload
// that sets up outside the solver call; otherwise each rep's engine compile
// time (the solver's SETUP phase) is.
func reportFitE2E(rc *runCtx, runs []fitRun, setups []float64) {
	var walls, iterMs, compile []float64
	for _, r := range runs {
		if r.traced {
			continue
		}
		walls = append(walls, r.wall.Seconds())
		compile = append(compile, r.setup.Seconds())
		iterMs = append(iterMs, ms(r.iters)...)
	}
	if setups == nil {
		setups = compile
	}
	rc.setE2E("setup_s", median(setups), len(setups))
	rc.setE2E("task_s", median(walls), len(walls))
	rc.setE2E("latency_ms.p50", quantile(iterMs, 0.5), len(iterMs))
	rc.setE2E("latency_ms.p90", quantile(iterMs, 0.9), len(iterMs))
	rc.logf("  fit wall s: %s; outer iteration ms: %s", tailSummary(walls), tailSummary(iterMs))
}

// engineProbe builds the same CSF engine the default in-memory path builds
// and wraps it, so every MTTKRP call is timed from outside the solver.
type engineProbe struct {
	tracer *obs.Tracer
	rank   int
	build  time.Duration
	engine core.Engine
	busy   time.Duration
	calls  []int64 // per mode
}

func (p *engineProbe) builder(x *tensor.COO, opts core.Options) (core.Engine, error) {
	start := time.Now()
	p.engine = core.NewCSFEngine(x, opts.SingleCSF)
	p.build = time.Since(start)
	p.calls = make([]int64, x.Order())
	return &timedEngine{Engine: p.engine, p: p}, nil
}

type timedEngine struct {
	core.Engine
	p *engineProbe
}

func (e *timedEngine) MTTKRP(m int, factors []*dense.Matrix, k *dense.Matrix, leaf mttkrp.LeafFactor, mo mttkrp.Options) error {
	start := time.Now()
	err := e.Engine.MTTKRP(m, factors, k, leaf, mo)
	d := time.Since(start)
	e.p.busy += d
	e.p.tracer.Emit("mttkrp", "mttkrp", m, obs.TIDDriver, e.p.calls[m], start, d)
	e.p.calls[m]++
	return err
}

// work totals the MTTKRP operations and computed bytes of the probed calls,
// and the CSF trees' footprint.
func (p *engineProbe) work() (gflop, gb, csfMB float64) {
	for m, n := range p.calls {
		t := p.engine.LeafTree(m)
		gflop += float64(n) * float64(mttkrp.FlopCount(t, p.rank)) / 1e9
		gb += float64(n) * float64(computedBytes(t, p.rank)) / 1e9
		csfMB += float64(t.MemoryBytes()) / (1 << 20)
	}
	return gflop, gb, csfMB
}

// computedBytes is the memory traffic one MTTKRP over tree t implies if no
// reuse hits in cache: the tree itself, one rank-length factor row per node
// below the root, and one output row per root slice. It is computed from
// sizes, not measured.
func computedBytes(t *csf.Tensor, rank int) int64 {
	rows := 0
	for d := 0; d < t.Order(); d++ {
		rows += t.NNodes(d)
	}
	return int64(t.MemoryBytes()) + int64(rows)*int64(rank)*8
}

// roofline returns the achieved share of the roofline bound: the lower of
// peak compute and bandwidth times operational intensity.
func roofline(gflop, gb, busy, peakGFlops, gbps float64) float64 {
	if busy <= 0 || gb <= 0 || peakGFlops <= 0 || gbps <= 0 {
		return 0
	}
	bound := math.Min(peakGFlops, gbps*gflop/gb)
	return gflop / busy / bound
}

// kernelSeconds sums one kernel's accumulated seconds over modes.
func kernelSeconds(rep *stats.Report, kernel stats.Kernel) float64 {
	s := 0.0
	for _, k := range rep.Kernels {
		if k.Kernel == string(kernel) {
			s += k.Seconds
		}
	}
	return s
}

// histQuantile is the nearest-rank q-quantile of an iteration-count
// histogram keyed by decimal strings.
func histQuantile(hist map[string]int64, q float64) float64 {
	type bin struct {
		v int
		n int64
	}
	var bins []bin
	var total int64
	for k, n := range hist {
		v, err := strconv.Atoi(k)
		if err != nil {
			continue
		}
		bins = append(bins, bin{v, n})
		total += n
	}
	if total == 0 {
		return 0
	}
	sort.Slice(bins, func(a, b int) bool { return bins[a].v < bins[b].v })
	rank := int64(math.Ceil(q * float64(total)))
	var cum int64
	for _, b := range bins {
		cum += b.n
		if cum >= rank {
			return float64(b.v)
		}
	}
	return float64(bins[len(bins)-1].v)
}

// fitLayers splits one traced rep into its layers. In-memory reps take
// MTTKRP and CSF times from the engine probe; out-of-core reps, whose engine
// no builder can wrap, take the MTTKRP phase from the solver's breakdown.
func fitLayers(rc *runCtx, r fitRun, res *aoadmm.Result, p *engineProbe) map[string]float64 {
	rep := res.Metrics.Report()
	wall := r.wall.Seconds()
	out := map[string]float64{
		"admm.busy_s":          kernelSeconds(rep, stats.KernelADMMInner),
		"admm.cholesky_s":      kernelSeconds(rep, stats.KernelCholesky),
		"admm.prox_s":          kernelSeconds(rep, stats.KernelProx),
		"admm.blocks":          float64(rep.ADMM.Blocks),
		"admm.block_iters.p50": histQuantile(rep.ADMM.InnerIterHistogram, 0.5),
		"admm.block_iters.p90": histQuantile(rep.ADMM.InnerIterHistogram, 0.9),
		"admm.rho_adaptations": float64(rep.ADMM.RhoAdaptations),
		"core.row_iters":       float64(res.RowIters),
		"dense.gram_s":         kernelSeconds(rep, stats.KernelGram),
		"core.fit_check_s":     kernelSeconds(rep, stats.KernelFit),
		"core.iter_ms.p50":     quantile(ms(r.iters), 0.5),
		"core.relerr":          res.RelErr,
		"par.imbalance_ratio":  rep.Scheduler.ImbalanceRatio,
	}
	for _, t := range rep.Scheduler.Threads {
		out["par.busy_s"] += t.BusySeconds
	}
	var setup, kernel float64
	if p != nil {
		gflop, gb, csfMB := p.work()
		setup, kernel = p.build.Seconds(), p.busy.Seconds()
		out["csf.build_s"] = setup
		out["csf.mb"] = csfMB
		out["mttkrp.busy_s"] = kernel
		for _, n := range p.calls {
			out["mttkrp.calls"] += float64(n)
		}
		out["mttkrp.gflop"] = gflop
		out["mttkrp.gflops"] = gflop / kernel
		out["mttkrp.gb_computed"] = gb
		out["mttkrp.roofline_frac"] = roofline(gflop, gb, kernel,
			rc.layer["machine.fma_gflops"].v, rc.layer["machine.triad_gbps"].v)
	} else {
		setup, kernel = r.setup.Seconds(), res.Breakdown.Get(stats.PhaseMTTKRP).Seconds()
		o := res.OOC
		out["ooc.mttkrp_s"] = kernel
		out["ooc.shards"] = float64(o.Shards)
		out["ooc.shard_loads"] = float64(o.ShardLoads)
		out["ooc.read_mb"] = float64(o.ShardBytesRead) / (1 << 20)
		out["ooc.prefetch_stalls"] = float64(o.PrefetchStalls)
		out["ooc.stall_s"] = o.PrefetchStallSeconds
		out["ooc.peak_tracked_mb"] = float64(o.PeakTrackedBytes) / (1 << 20)
	}
	out["core.unattributed_frac"] = unattributedFrac(wall, setup, kernel,
		out["admm.busy_s"], out["dense.gram_s"], out["core.fit_check_s"])
	return out
}

// reportFitLayers sets the per-layer metrics of a traced run of a fit
// workload: the median of each layer over the traced reps, and the tracing
// overhead against the untraced reps run alongside them.
func reportFitLayers(rc *runCtx, runs []fitRun) {
	var tracedWalls, plainWalls []float64
	samples := map[string][]float64{}
	for _, r := range runs {
		if !r.traced {
			plainWalls = append(plainWalls, r.wall.Seconds())
			continue
		}
		tracedWalls = append(tracedWalls, r.wall.Seconds())
		for k, v := range r.layers {
			samples[k] = append(samples[k], v)
		}
	}
	for k, vs := range samples {
		rc.setLayer(k, median(vs), len(vs))
	}
	rc.setLayer("obs.trace_overhead_frac", median(tracedWalls)/median(plainWalls)-1, len(tracedWalls))
	rc.logf("  traced wall s: %s (untraced %s)", tailSummary(tracedWalls), tailSummary(plainWalls))
}

func runFitPatents(rc *runCtx) error { return runInMemoryFit(rc, patentsFit) }

func runFitNell(rc *runCtx) error { return runInMemoryFit(rc, nellFit) }

// runInMemoryFit times aoadmm.Factorize on the workload's input.
func runInMemoryFit(rc *runCtx, spec fitSpec) error {
	x, err := input(spec.dataset, rc.scale, rc.seed)
	if err != nil {
		return err
	}
	rc.logf("  input: %s %v nnz=%d, rank %d, %d outer iterations", spec.dataset, x.Dims, x.NNZ(), spec.rank, spec.iters)
	var runs []fitRun
	err = repeat(rc, rc.minReps(), func(rep int) error {
		traced := rc.tracedRep(rep)
		var probe *engineProbe
		if traced {
			probe = &engineProbe{tracer: rc.tracer, rank: spec.rank}
		}
		r, err := timeFit(rc, rep, spec, spec.options(rc.seed), traced, probe, func(o aoadmm.Options) (*aoadmm.Result, error) {
			return aoadmm.Factorize(x, o)
		})
		runs = append(runs, r)
		return err
	})
	if err != nil {
		return err
	}
	if rc.traced {
		reportFitLayers(rc, runs)
	} else {
		reportFitE2E(rc, runs, nil)
	}
	return nil
}

// runOOCPatents shards the fit-patents input under a budget that forces
// streaming and times aoadmm.FactorizeOOC on it.
func runOOCPatents(rc *runCtx) error {
	spec := oocFit
	x, err := input(spec.dataset, rc.scale, rc.seed)
	if err != nil {
		return err
	}
	var setups []float64
	var st *aoadmm.ShardedTensor
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(rc.work, fmt.Sprintf("shards-%d", i))
		start := time.Now()
		if _, err := aoadmm.ConvertTensorToShards(x, dir, aoadmm.ShardConvertOptions{MemBudgetBytes: oocBudget}); err != nil {
			return err
		}
		if st, err = aoadmm.OpenSharded(dir); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rc.logf("  input: %s %v nnz=%d as %d shards under a %d MiB budget (in-memory estimate %d MiB), rank %d, %d outer iterations",
		spec.dataset, x.Dims, x.NNZ(), st.NumShards(), oocBudget>>20,
		aoadmm.EstimateInMemoryBytes(x.Order(), int64(x.NNZ()))>>20, spec.rank, spec.iters)

	var runs []fitRun
	err = repeat(rc, rc.minReps(), func(rep int) error {
		opts := spec.options(rc.seed)
		opts.MemBudgetBytes = oocBudget
		r, err := timeFit(rc, rep, spec, opts, rc.tracedRep(rep), nil, func(o aoadmm.Options) (*aoadmm.Result, error) {
			return aoadmm.FactorizeOOC(st, o)
		})
		runs = append(runs, r)
		return err
	})
	if err != nil {
		return err
	}

	// The in-memory reference is untimed: the out-of-core path must land
	// within parityTol of it.
	ref, err := aoadmm.Factorize(x, spec.options(rc.seed))
	if err != nil {
		return err
	}
	checkParity(rc, "out-of-core", runs[0].relErr, ref.RelErr)

	if !rc.traced {
		reportFitE2E(rc, runs, setups)
		return nil
	}
	reportFitLayers(rc, runs)
	rc.setLayer("ooc.convert_s", median(setups), len(setups))
	ratio, err := oocKernelRatio(st, x, ref.Factors.Factors)
	if err != nil {
		return err
	}
	rc.setLayer("ooc.mttkrp_vs_inmem_ratio", ratio, 1)
	return nil
}

// oocKernelRatio times one sweep of the streaming MTTKRP over every mode
// against the in-memory CSF kernel on the same factors.
func oocKernelRatio(st *aoadmm.ShardedTensor, x *aoadmm.Tensor, factors []*dense.Matrix) (float64, error) {
	set := csf.BuildSet(x.Clone())
	rank := factors[0].Cols
	var streamed, resident time.Duration
	for m, dim := range x.Dims {
		out, scratch := dense.New(dim, rank), dense.New(dim, rank)
		start := time.Now()
		if err := st.MTTKRPKernel("", m, factors, out, scratch, mttkrp.Options{}, &ooc.StreamStats{}); err != nil {
			return 0, err
		}
		streamed += time.Since(start)
		start = time.Now()
		mttkrp.Compute(set.Tree(m), factors, out, nil, mttkrp.Options{})
		resident += time.Since(start)
	}
	return streamed.Seconds() / resident.Seconds(), nil
}
