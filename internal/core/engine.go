package core

import (
	"fmt"

	"aoadmm/internal/alto"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/obs"
	"aoadmm/internal/ooc"
	"aoadmm/internal/perfmodel"
	"aoadmm/internal/stats"
	"aoadmm/internal/tensor"
)

// Kernel format names accepted by Options.KernelFormat. The set is closed
// and owned by internal/perfmodel: every other name is an error.
const (
	// FormatCSF compiles the tensor into compressed sparse fiber trees —
	// one per mode, or a single tree under SingleCSF. The default.
	FormatCSF = perfmodel.FormatCSF
	// FormatALTO compiles the tensor into the adaptive linearized format
	// (internal/alto): one bit-interleaved representation serving every
	// mode's MTTKRP.
	FormatALTO = perfmodel.FormatALTO
	// FormatAuto picks CSF or ALTO from the perfmodel kernel cost model
	// measured on the tensor's structure (internal/perfmodel).
	FormatAuto = perfmodel.FormatAuto
)

// Engine abstracts where the data tensor lives during the AO loop and which
// kernel computes MTTKRP: in memory as CSF trees, in memory as the ALTO
// linearized format, or on disk as mode-0-range shards streamed one at a
// time. The outer solvers are written against this interface, so every
// engine shares one loop body (and therefore one convergence and
// observability path).
type Engine interface {
	// LeafTree returns the resident CSF tree that mode m's MTTKRP will
	// traverse, or nil for engines with no per-mode tree (ALTO, streaming),
	// where compressed leaf-factor images do not apply.
	LeafTree(m int) *csf.Tensor
	// MTTKRP computes mode m's MTTKRP of the data tensor with the model
	// factors into k, overwriting it.
	MTTKRP(m int, factors []*dense.Matrix, k *dense.Matrix, leaf mttkrp.LeafFactor, mo mttkrp.Options) error
	// OOCReport snapshots the engine's shard-I/O counters; nil for
	// in-memory engines (the report is the OOC section of the metrics
	// schema and Result.OOC).
	OOCReport() *stats.OOCReport
	// Backend names the kernel backend serving mode m ("csf",
	// "csf-single", "alto", "ooc-csf", ...) for metrics and result
	// reporting.
	Backend(m int) string
}

// EngineBuilder is a hook for wrapping the native in-memory engine, e.g. to
// time or trace every MTTKRP call: a builder typically constructs the engine
// with NewCSFEngine or NewALTOEngine and returns a decorator around it. It
// is not a way to add kernel formats — the format set is closed.
type EngineBuilder func(x *tensor.COO, opts Options) (Engine, error)

// newEngine builds the in-memory engine for Options.KernelFormat, or hands
// the build to Options.EngineBuilder when one is set.
func newEngine(x *tensor.COO, opts Options) (Engine, error) {
	if opts.EngineBuilder != nil {
		return opts.EngineBuilder(x, opts)
	}
	return buildInMemoryEngine(x, opts.KernelFormat, opts.SingleCSF, opts.Rank, opts.Threads)
}

// buildInMemoryEngine resolves format for x and compiles it. single only
// applies to the CSF format.
func buildInMemoryEngine(x *tensor.COO, format string, single bool, rank, threads int) (Engine, error) {
	resolved, err := perfmodel.ResolveKernelFormat(format, x, rank, threads)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if resolved == FormatALTO {
		return NewALTOEngine(x)
	}
	return NewCSFEngine(x, single), nil
}

// inMemoryEngine is the classical path: the full tensor compiled into CSF —
// one tree per mode, or a single tree rooted at the shortest mode in the
// SingleCSF configuration.
type inMemoryEngine struct {
	trees  *csf.Tensor // SingleCSF solo tree
	set    *csf.Set
	single bool
}

// NewCSFEngine compiles x into CSF trees (one per mode, or a single
// shortest-mode tree when single is set).
func NewCSFEngine(x *tensor.COO, single bool) Engine {
	e := &inMemoryEngine{single: single}
	if single {
		shortest := 0
		for m, d := range x.Dims {
			if d < x.Dims[shortest] {
				shortest = m
			}
		}
		e.trees = csf.Build(x.Clone(), csf.DefaultPerm(x.Order(), shortest))
	} else {
		e.set = csf.BuildSet(x.Clone())
	}
	return e
}

func (e *inMemoryEngine) LeafTree(m int) *csf.Tensor {
	if e.single {
		return e.trees
	}
	return e.set.Tree(m)
}

func (e *inMemoryEngine) MTTKRP(m int, factors []*dense.Matrix, k *dense.Matrix, leaf mttkrp.LeafFactor, mo mttkrp.Options) error {
	if e.single {
		mttkrp.ComputeMode(e.trees, m, factors, k, leaf, mo)
	} else {
		mttkrp.Compute(e.set.Tree(m), factors, k, leaf, mo)
	}
	return nil
}

func (e *inMemoryEngine) OOCReport() *stats.OOCReport { return nil }

func (e *inMemoryEngine) Backend(int) string {
	if e.single {
		return "csf-single"
	}
	return FormatCSF
}

// altoEngine drives every mode's MTTKRP from one ALTO linearized
// representation. Leaf-factor images do not apply (LeafTree is nil — there
// is no leaf mode; every non-zero touches all factors symmetrically), so
// ExploitSparsity is inert under this engine, as it is out-of-core.
type altoEngine struct {
	t *alto.Tensor
}

// NewALTOEngine compiles x into the ALTO linearized format.
func NewALTOEngine(x *tensor.COO) (Engine, error) {
	t, err := alto.Build(x, alto.Options{})
	if err != nil {
		return nil, err
	}
	return &altoEngine{t: t}, nil
}

func (e *altoEngine) LeafTree(int) *csf.Tensor { return nil }

func (e *altoEngine) MTTKRP(m int, factors []*dense.Matrix, k *dense.Matrix, _ mttkrp.LeafFactor, mo mttkrp.Options) error {
	e.t.MTTKRP(m, factors, k, mo)
	return nil
}

func (e *altoEngine) OOCReport() *stats.OOCReport { return nil }

func (e *altoEngine) Backend(int) string { return FormatALTO }

// oocEngine streams a sharded on-disk tensor: per MTTKRP, shards are loaded
// one at a time (prefetched on a background goroutine), compiled to the
// configured kernel format, and their partial products accumulated. Leaf
// factors are always dense — the compressed-image cache keys off a resident
// tree that streaming does not have.
type oocEngine struct {
	st      *ooc.ShardedTensor
	scratch *dense.Matrix // maxDim x rank backing; RowBlock'd per mode
	stats   ooc.StreamStats
	budget  int64
	format  string // per-shard kernel format: csf, alto, or auto
}

func newOOCEngine(st *ooc.ShardedTensor, rank int, budgetBytes int64, tr *obs.Tracer, format string) *oocEngine {
	e := &oocEngine{
		st:      st,
		scratch: dense.New(maxDim(st.Dims()), rank),
		budget:  budgetBytes,
		format:  format,
	}
	e.stats.Trace = tr
	return e
}

func (e *oocEngine) LeafTree(int) *csf.Tensor { return nil }

func (e *oocEngine) MTTKRP(m int, factors []*dense.Matrix, k *dense.Matrix, leaf mttkrp.LeafFactor, mo mttkrp.Options) error {
	scratch := e.scratch.RowBlock(0, k.Rows)
	return e.st.MTTKRPKernel(e.format, m, factors, k, scratch, mo, &e.stats)
}

func (e *oocEngine) OOCReport() *stats.OOCReport {
	snap := e.stats.Snapshot()
	return &stats.OOCReport{
		Shards:               e.st.NumShards(),
		ShardLoads:           snap.ShardLoads,
		ShardBytesRead:       snap.BytesRead,
		PrefetchStalls:       snap.PrefetchStalls,
		PrefetchStallSeconds: float64(snap.StallNanos) / 1e9,
		PeakTrackedBytes:     snap.PeakBytes,
		EstimateBytes:        ooc.InMemoryBytes(e.st.Order(), e.st.NNZ()),
		BudgetBytes:          e.budget,
		ShardKernels:         snap.ShardKernels,
	}
}

func (e *oocEngine) Backend(int) string {
	f := e.format
	if f == "" {
		f = FormatCSF
	}
	return "ooc-" + f
}

// backendNames snapshots the engine's per-mode backend choice for Result and
// metrics reporting.
func backendNames(eng Engine, order int) []string {
	names := make([]string, order)
	for m := 0; m < order; m++ {
		names[m] = eng.Backend(m)
	}
	return names
}
