// Command aoadmm factorizes a sparse tensor with constrained AO-ADMM.
//
// Usage:
//
//	aoadmm -input X.tns -rank 50 -constraint nonneg [flags]
//	aoadmm -dataset amazon -scale small -rank 16 -constraint nonneg+l1:0.1
//
// The input is either a FROSTT ".tns" file (-input) or a built-in dataset
// proxy (-dataset). Factors are optionally written as one text matrix per
// mode (-output prefix).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aoadmm"
	"aoadmm/internal/core"
	"aoadmm/internal/stats"
)

func main() {
	var (
		input      = flag.String("input", "", "path to a FROSTT .tns tensor")
		dataset    = flag.String("dataset", "", "built-in dataset proxy: reddit|nell|amazon|patents")
		scale      = flag.String("scale", "small", "proxy scale: small|medium|large")
		rank       = flag.Int("rank", 16, "CPD rank F")
		constraint = flag.String("constraint", "nonneg", "constraint spec: none|nonneg|l1:L|nonneg+l1:L|l2:L|simplex|box:LO,HI (comma-separate for per-mode)")
		variant    = flag.String("variant", "blocked", "inner ADMM variant: blocked|base")
		structure  = flag.String("structure", "csr", "sparse factor structure: dense|csr|hybrid|auto (auto: DENSE/CSR/CSR-H from the cost model)")
		sparsity   = flag.Bool("exploit-sparsity", true, "exploit dynamic factor sparsity during MTTKRP")
		threads    = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		maxOuter   = flag.Int("max-outer", 200, "maximum outer iterations")
		tol        = flag.Float64("tol", 1e-6, "relative-error improvement tolerance")
		blockSize  = flag.Int("block-size", 50, "blocked ADMM rows per block")
		seed       = flag.Int64("seed", 1, "random seed for factor initialization")
		singleCSF  = flag.Bool("single-csf", false, "use one CSF tree for all modes (lower memory)")
		format     = flag.String("format", "", "MTTKRP kernel backend: csf|alto|auto (default csf; see docs/FORMATS.md)")
		autoBlock  = flag.Bool("auto-block", false, "choose block size from the analytical model")
		algo       = flag.String("algo", "aoadmm", "solver: aoadmm|hals|als")
		adaptive   = flag.Bool("adaptive-rho", false, "per-block ADMM penalty rebalancing")
		output     = flag.String("output", "", "prefix for writing factor matrices (prefix_mode0.txt, ...)")
		profile    = flag.String("profile", "", "write an aoadmm-metrics/v1 JSON report to this file (see docs/OBSERVABILITY.md)")
		trace      = flag.String("trace", "", "write a Chrome trace_event JSON file to this path (open in chrome://tracing or Perfetto)")
		quiet      = flag.Bool("quiet", false, "suppress per-iteration progress")
		oocFlag    = flag.Bool("ooc", false, "force out-of-core execution (shard-streaming MTTKRP)")
		memBudget  = flag.Int64("mem-budget", 0, "memory budget in MiB; tensors whose estimated in-memory footprint exceeds it run out-of-core (0 = unlimited)")
	)
	flag.Parse()

	if err := run(runConfig{
		input: *input, dataset: *dataset, scale: *scale, rank: *rank,
		constraint: *constraint, variant: *variant, structure: *structure,
		sparsity: *sparsity, threads: *threads, maxOuter: *maxOuter,
		tol: *tol, blockSize: *blockSize, seed: *seed, output: *output,
		quiet: *quiet, singleCSF: *singleCSF, format: *format, autoBlock: *autoBlock,
		algo: *algo, adaptiveRho: *adaptive,
		profile: *profile, trace: *trace, ooc: *oocFlag, memBudgetMB: *memBudget,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "aoadmm:", err)
		os.Exit(1)
	}
}

// runConfig carries the resolved CLI flags.
type runConfig struct {
	input, dataset, scale          string
	rank                           int
	constraint, variant, structure string
	sparsity                       bool
	threads, maxOuter              int
	tol                            float64
	blockSize                      int
	seed                           int64
	output                         string
	quiet                          bool
	singleCSF, autoBlock           bool
	adaptiveRho                    bool
	format                         string
	algo                           string
	profile                        string
	trace                          string
	ooc                            bool
	memBudgetMB                    int64
}

func run(c runConfig) error {
	rank, constraint, variant, structure := c.rank, c.constraint, c.variant, c.structure
	sparsity, threads, maxOuter := c.sparsity, c.threads, c.maxOuter
	tol, blockSize, seed, output, quiet := c.tol, c.blockSize, c.seed, c.output, c.quiet
	budgetBytes := c.memBudgetMB << 20

	x, sharded, cleanup, err := resolveTensor(c, budgetBytes)
	if err != nil {
		return err
	}
	defer cleanup()
	order := 0
	if sharded != nil {
		order = sharded.Order()
		fmt.Printf("tensor: %v\n", sharded)
	} else {
		order = x.Order()
		fmt.Printf("tensor: %v\n", x)
	}

	constraints, err := parseConstraints(constraint, order)
	if err != nil {
		return err
	}

	var tracer *aoadmm.Tracer
	if c.trace != "" {
		tracer = aoadmm.NewTracer(threads)
	}

	opts := aoadmm.Options{
		Rank:            rank,
		Constraints:     constraints,
		MaxOuterIters:   maxOuter,
		Tol:             tol,
		Threads:         threads,
		BlockSize:       blockSize,
		ExploitSparsity: sparsity,
		Seed:            seed,
		MemBudgetBytes:  budgetBytes,
		CollectMetrics:  c.profile != "",
		Tracer:          tracer,
	}
	if opts.Variant, opts.Structure, err = core.ParseSpec(variant, structure); err != nil {
		return err
	}
	opts.SingleCSF = c.singleCSF
	opts.AutoBlockSize = c.autoBlock
	opts.AdaptiveRho = c.adaptiveRho
	opts.KernelFormat = c.format
	if !quiet {
		opts.OnIteration = func(p aoadmm.TracePoint) bool {
			fmt.Printf("outer %3d  relerr %.6f  %.2fs\n", p.Iteration, p.RelErr, p.Elapsed.Seconds())
			return true
		}
	}

	var res *aoadmm.Result
	switch c.algo {
	case "", "aoadmm":
		if sharded != nil {
			res, err = aoadmm.FactorizeOOC(sharded, opts)
		} else {
			res, err = aoadmm.Factorize(x, opts)
		}
	case "hals":
		if sharded != nil {
			return fmt.Errorf("-algo hals does not support out-of-core execution")
		}
		res, err = aoadmm.FactorizeHALS(x, aoadmm.HALSOptions{
			Rank: rank, MaxOuterIters: maxOuter, Tol: tol, Threads: threads, Seed: seed,
			CollectMetrics: c.profile != "", Tracer: tracer, KernelFormat: c.format,
		})
	case "als":
		alsOpts := aoadmm.ALSOptions{
			Rank: rank, MaxOuterIters: maxOuter, Tol: tol, Threads: threads, Seed: seed, Ridge: 1e-10,
			MemBudgetBytes: budgetBytes, CollectMetrics: c.profile != "", Tracer: tracer,
			KernelFormat: c.format,
		}
		if sharded != nil {
			res, err = aoadmm.FactorizeALSOOC(sharded, alsOpts)
		} else {
			res, err = aoadmm.FactorizeALS(x, alsOpts)
		}
	default:
		return fmt.Errorf("unknown algo %q (want aoadmm|hals|als)", c.algo)
	}
	if err != nil {
		return err
	}
	fmt.Printf("done: relerr=%.6f outer=%d converged=%v\n", res.RelErr, res.OuterIters, res.Converged)
	if c.format != "" && len(res.KernelBackends) > 0 {
		fmt.Printf("kernel backends: %s\n", strings.Join(res.KernelBackends, " "))
	}
	if r := res.OOC; r != nil {
		fmt.Printf("ooc: shards=%d loads=%d read=%.1fMiB stalls=%d stall=%.2fs peak=%.1fMiB\n",
			r.Shards, r.ShardLoads, float64(r.ShardBytesRead)/(1<<20),
			r.PrefetchStalls, r.PrefetchStallSeconds, float64(r.PeakTrackedBytes)/(1<<20))
	}
	if !quiet && len(res.Trace.Points) > 1 {
		_ = stats.PlotTrace(os.Stdout, res.Trace, 60, 10)
	}
	fmt.Printf("time: %s\n", res.Breakdown)
	fmt.Printf("factor densities: %v\n", formatDensities(res.FactorDensities))

	if c.profile != "" {
		if err := writeProfile(c.profile, res.Metrics); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", c.profile)
	}

	if c.trace != "" {
		if err := tracer.WriteChromeFile(c.trace); err != nil {
			return err
		}
		if d := tracer.Dropped(); d > 0 {
			fmt.Printf("wrote %s (ring overflow: %d oldest events dropped)\n", c.trace, d)
		} else {
			fmt.Printf("wrote %s\n", c.trace)
		}
	}

	if output != "" {
		for m, f := range res.Factors.Factors {
			path := fmt.Sprintf("%s_mode%d.txt", output, m)
			if err := writeMatrix(path, f.Rows, f.Cols, f.At); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%dx%d)\n", path, f.Rows, f.Cols)
		}
	}
	return nil
}

// resolveTensor turns the CLI's tensor source into either an in-memory
// tensor or a sharded on-disk one, applying the memory-admission rule:
//
//   - a shard-directory -input streams directly (no conversion);
//   - -ooc with a file input stream-converts it via external merge sort,
//     never materializing the tensor;
//   - otherwise the tensor is loaded and, when -ooc is forced or its
//     estimated in-memory footprint exceeds -mem-budget, sharded into a
//     temporary directory that cleanup removes.
func resolveTensor(c runConfig, budgetBytes int64) (x *aoadmm.Tensor, st *aoadmm.ShardedTensor, cleanup func(), err error) {
	cleanup = func() {}
	if c.input != "" && c.dataset != "" {
		return nil, nil, cleanup, fmt.Errorf("pass -input or -dataset, not both")
	}
	if c.input == "" && c.dataset == "" {
		return nil, nil, cleanup, fmt.Errorf("need -input or -dataset")
	}

	convOpts := aoadmm.ShardConvertOptions{MemBudgetBytes: budgetBytes}

	if c.input != "" {
		if aoadmm.IsShardDir(c.input) {
			st, err = aoadmm.OpenSharded(c.input)
			return nil, st, cleanup, err
		}
		if c.ooc {
			dir, derr := os.MkdirTemp("", "aoadmm-shards-")
			if derr != nil {
				return nil, nil, cleanup, derr
			}
			cleanup = func() { os.RemoveAll(dir) }
			st, err = aoadmm.ConvertToShards(c.input, dir, convOpts)
			if err != nil {
				cleanup()
				return nil, nil, func() {}, err
			}
			fmt.Printf("ooc: converted %s into %d shard(s)\n", c.input, st.NumShards())
			return nil, st, cleanup, nil
		}
		if strings.HasSuffix(c.input, ".aotn") {
			x, err = aoadmm.LoadTensorBinary(c.input)
		} else {
			x, err = aoadmm.LoadTensor(c.input)
		}
	} else {
		s, serr := parseScale(c.scale)
		if serr != nil {
			return nil, nil, cleanup, serr
		}
		x, err = aoadmm.Dataset(c.dataset, s)
	}
	if err != nil {
		return nil, nil, cleanup, err
	}

	dec := aoadmm.DecideAdmission(x.Order(), int64(x.NNZ()), budgetBytes)
	if !c.ooc && !dec.OutOfCore {
		if budgetBytes > 0 {
			fmt.Printf("admission: in-memory (estimate %.1fMiB <= budget %.1fMiB)\n",
				float64(dec.EstimateBytes)/(1<<20), float64(budgetBytes)/(1<<20))
		}
		return x, nil, cleanup, nil
	}
	if dec.OutOfCore {
		fmt.Printf("admission: out-of-core (estimate %.1fMiB > budget %.1fMiB)\n",
			float64(dec.EstimateBytes)/(1<<20), float64(budgetBytes)/(1<<20))
	}
	dir, derr := os.MkdirTemp("", "aoadmm-shards-")
	if derr != nil {
		return nil, nil, cleanup, derr
	}
	cleanup = func() { os.RemoveAll(dir) }
	st, err = aoadmm.ConvertTensorToShards(x, dir, convOpts)
	if err != nil {
		cleanup()
		return nil, nil, func() {}, err
	}
	fmt.Printf("ooc: sharded into %d shard(s)\n", st.NumShards())
	return nil, st, cleanup, nil
}

func parseScale(s string) (aoadmm.Scale, error) {
	switch s {
	case "small":
		return aoadmm.ScaleSmall, nil
	case "medium":
		return aoadmm.ScaleMedium, nil
	case "large":
		return aoadmm.ScaleLarge, nil
	default:
		return aoadmm.ScaleSmall, fmt.Errorf("unknown scale %q", s)
	}
}

// parseConstraints accepts either one spec for all modes or a comma-list
// with one spec per mode (specs containing commas, like box:0,1, must be the
// single-spec form).
func parseConstraints(spec string, order int) ([]aoadmm.Constraint, error) {
	if !strings.Contains(spec, ";") {
		c, err := aoadmm.ParseConstraint(spec)
		if err != nil {
			return nil, err
		}
		return []aoadmm.Constraint{c}, nil
	}
	parts := strings.Split(spec, ";")
	if len(parts) != order {
		return nil, fmt.Errorf("%d constraint specs for an order-%d tensor", len(parts), order)
	}
	out := make([]aoadmm.Constraint, order)
	for m, p := range parts {
		c, err := aoadmm.ParseConstraint(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("mode %d: %w", m, err)
		}
		out[m] = c
	}
	return out, nil
}

func formatDensities(ds []float64) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.3f", d)
	}
	return strings.Join(parts, " ")
}

func writeProfile(path string, m *aoadmm.Metrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMatrix(path string, rows, cols int, at func(i, j int) float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j > 0 {
				fmt.Fprint(f, " ")
			}
			fmt.Fprintf(f, "%g", at(i, j))
		}
		fmt.Fprintln(f)
	}
	return f.Close()
}
