// Package admm implements the inner solver of AO-ADMM (Algorithm 1 of the
// paper) in two forms:
//
//   - Run: the baseline kernel-parallel formulation (§IV-A). Every inner
//     iteration performs one row-parallel sweep (solve, prox, dual update)
//     followed by a global reduction of the primal/dual residuals — one
//     fork-join barrier per iteration, and a single convergence decision
//     shared by all rows.
//   - RunBlocked: the blockwise reformulation (§IV-B). Rows are split into
//     blocks that each run Algorithm 1 independently until their own
//     residuals converge, dispatched to threads with dynamic load balancing.
//     High-signal blocks may take many more iterations than average without
//     holding the rest of the matrix hostage, and a block's working set
//     stays cache resident across its iterations.
//
// Both operate on the mode-m subproblem
//
//	min ½‖X(m) − H̃ᵀ(⊙ₙAₙ)ᵀ‖² + r(H)  s.t.  H = H̃ᵀ
//
// given K = MTTKRP(X, m) and the Gram matrix G = ∗_{n≠m} AₙᵀAₙ.
package admm

import (
	"fmt"
	"time"

	"aoadmm/internal/dense"
	"aoadmm/internal/par"
	"aoadmm/internal/prox"
)

// DefaultEps is the inner-iteration convergence tolerance on the relative
// primal and dual residuals.
const DefaultEps = 1e-2

// DefaultMaxIters caps the inner iterations of one ADMM solve.
const DefaultMaxIters = 50

// DefaultBlockSize is the paper's empirically chosen block of 50 rows —
// "a good trade-off between convergence and execution" (§IV-B).
const DefaultBlockSize = 50

// Config parameterizes one ADMM solve.
type Config struct {
	// Prox is the constraint/regularization operator (nil = unconstrained).
	Prox prox.Operator
	// Eps is the residual tolerance (<= 0 means DefaultEps).
	Eps float64
	// MaxIters caps inner iterations (<= 0 means DefaultMaxIters).
	MaxIters int
	// Threads is the worker count (<= 0 means GOMAXPROCS).
	Threads int
	// BlockSize is the rows per block for RunBlocked and the rows per
	// cache-resident tile each Run thread walks its range in (<= 0 means
	// DefaultBlockSize). Run's results do not depend on it.
	BlockSize int
	// AdaptiveRho enables per-block residual balancing (Boyd et al.,
	// §3.4.1) in RunBlocked: when a block's primal residual dominates its
	// dual residual by RhoRatio the block's penalty doubles (and vice
	// versa), with the dual variable rescaled and the block's own
	// (G + ρI) Cholesky refactored. The blockwise formulation makes this
	// affordable — each refactorization is one F x F Cholesky amortized
	// over a whole block — where the monolithic solver would have to
	// refactor for all rows at once. Ignored by Run.
	AdaptiveRho bool
	// RhoRatio is the imbalance ratio that triggers adaptation (<= 0 means
	// 10, Boyd's suggestion).
	RhoRatio float64
	// Telem, when non-nil, receives per-thread scheduler counters (chunks
	// claimed, busy time) from the solve's dispatch: per-block dynamic
	// dispatch in RunBlocked, per-iteration static spans in Run.
	Telem *par.Telemetry
}

func (c Config) eps() float64 {
	if c.Eps <= 0 {
		return DefaultEps
	}
	return c.Eps
}

func (c Config) maxIters() int {
	if c.MaxIters <= 0 {
		return DefaultMaxIters
	}
	return c.MaxIters
}

func (c Config) blockSize() int {
	if c.BlockSize <= 0 {
		return DefaultBlockSize
	}
	return c.BlockSize
}

func (c Config) prox() prox.Operator {
	if c.Prox == nil {
		return prox.Unconstrained{}
	}
	return c.Prox
}

// Stats reports what one ADMM solve did.
type Stats struct {
	// Iterations is the global iteration count (baseline) or the maximum
	// block iteration count (blocked).
	Iterations int
	// RowIterations is Σ over rows of the iterations applied to that row —
	// the true convergence work measure that lets baseline and blocked runs
	// be compared fairly.
	RowIterations int64
	// Blocks is the number of row blocks processed (1 for the baseline).
	Blocks int
	// RhoAdaptations counts per-block penalty rescalings (AdaptiveRho only).
	RhoAdaptations int64
	// Converged is false when MaxIters was hit (by any block).
	Converged bool
	// BlockIters holds the per-block inner-iteration counts in block order
	// (a single entry for the baseline solver, which converges globally).
	// This is the raw data behind the per-block convergence histogram.
	BlockIters []int
	// Timing is the fine-grained phase split of the solve.
	Timing Timing
}

// Timing is the fine-grained time split of one solve. Cholesky is the wall
// time of the shared (G + rho*I) factorization plus thread-summed adaptive
// refactorizations. Prox is busy time summed across worker threads — CPU
// seconds, not wall clock, so on p threads it can reach p times the solve's
// elapsed time — read as one clock pair around each tile's prox pass.
type Timing struct {
	Cholesky time.Duration
	Prox     time.Duration
}

// Workspace holds the per-thread row tiles (H̃ and H₀, min(BlockSize, rows)
// x F each, and the transposed panel the solve runs its lanes across) so
// repeated ADMM calls (one per mode per outer iteration) do not reallocate.
// Zero value is ready; it grows on demand. A nil *Workspace makes the solve
// allocate its own.
type Workspace struct {
	ht, h0 []*dense.Matrix
	lanes  [][]float64
}

func (w *Workspace) tiles(threads, rows, cols int) (ht, h0 []*dense.Matrix, lanes [][]float64) {
	if len(w.ht) < threads || w.ht[0].Rows < rows || w.ht[0].Cols != cols {
		w.ht = make([]*dense.Matrix, threads)
		w.h0 = make([]*dense.Matrix, threads)
		w.lanes = make([][]float64, threads)
		for t := range threads {
			w.ht[t] = dense.New(rows, cols)
			w.h0[t] = dense.New(rows, cols)
			w.lanes[t] = make([]float64, rows*cols)
		}
	}
	return w.ht, w.h0, w.lanes
}

// prepare computes the shared per-solve quantities: ρ = trace(G)/F and the
// Cholesky factor of (G + ρI) (Algorithm 1, lines 3-4).
func prepare(g *dense.Matrix) (float64, *dense.Cholesky, error) {
	f := g.Rows
	if f == 0 {
		return 0, nil, fmt.Errorf("admm: empty Gram matrix")
	}
	rho := dense.Trace(g) / float64(f)
	if rho <= 0 {
		rho = 1e-12
	}
	ch, _, err := dense.NewCholeskyJitter(dense.AddScaledIdentity(g, rho), 0, 30)
	if err != nil {
		return 0, nil, fmt.Errorf("admm: factorizing G + rho*I: %w", err)
	}
	return rho, ch, nil
}

// solver is the per-solve state Run and RunBlocked share.
type solver struct {
	h, u, k  *dense.Matrix
	op       prox.Operator
	rho      float64
	ch       *dense.Cholesky
	eps      float64
	maxIters int
	threads  int
	bs       int
	ht, h0   []*dense.Matrix // per-thread tiles
	lanes    [][]float64     // per-thread transposed solve panels
	proxNs   []int64         // per-thread prox time, merged after the join
	cholNs   []int64         // per-thread adaptive refactorization time
	cholTime time.Duration   // the shared factorization's wall time
}

// newSolver validates the shapes, factorizes (G + ρI) under the Cholesky
// timer, resolves the defaults, and sizes the per-thread tiles and shards.
func newSolver(h, u, k, g *dense.Matrix, ws *Workspace, cfg Config) (*solver, error) {
	if err := checkShapes(h, u, k, g); err != nil {
		return nil, err
	}
	cholStart := time.Now()
	rho, ch, err := prepare(g)
	if err != nil {
		return nil, err
	}
	s := &solver{
		h: h, u: u, k: k,
		op:       cfg.prox(),
		rho:      rho,
		ch:       ch,
		eps:      cfg.eps(),
		maxIters: cfg.maxIters(),
		threads:  par.Threads(cfg.Threads),
		bs:       cfg.blockSize(),
		cholTime: time.Since(cholStart),
	}
	if ws == nil {
		ws = &Workspace{}
	}
	s.ht, s.h0, s.lanes = ws.tiles(s.threads, min(s.bs, h.Rows), h.Cols)
	s.proxNs = make([]int64, s.threads)
	s.cholNs = make([]int64, s.threads)
	return s, nil
}

// timing merges the per-thread shards into the solve's Timing.
func (s *solver) timing() Timing {
	return Timing{Cholesky: s.cholTime + sumNs(s.cholNs), Prox: sumNs(s.proxNs)}
}

func sumNs(ns []int64) time.Duration {
	var total int64
	for _, v := range ns {
		total += v
	}
	return time.Duration(total)
}

// residuals holds the squared residual pieces of Algorithm 1's lines 10-11:
// primal num ‖H−H̃ᵀ‖², ‖H‖², dual num ‖H−H₀‖², ‖U‖².
type residuals struct{ pNum, pDen, dNum, dDen float64 }

// iterate performs Algorithm 1's lines 6-11 once over rows [lo, hi) of H, U
// and K, using thread tid's tiles, and adds the rows' residual pieces into
// r. It runs three passes over the rows: (1) form the right-hand sides and
// save H₀, solve them all for H̃ᵀ in one SolveRows, and set H = H̃ᵀ − U; (2)
// the prox, timed once for the whole pass; (3) the dual update and the
// residual sums in row order. Each row's own operations run in the same
// order as in a single fused pass (SolveRows equals SolveVec per row bit for
// bit), and rows never read each other, so the split changes no bit of the
// result.
func (s *solver) iterate(tid, lo, hi int, rho float64, ch *dense.Cholesky, r *residuals) {
	h, u, k := s.h, s.u, s.k
	ht, h0 := s.ht[tid], s.h0[tid]
	f := h.Cols
	// Pass 1, lines 6-8 before the prox: H̃ᵀ(i,:) = (G+ρI)⁻¹ (K + ρ(H+U))(i,:),
	// H₀ = H, H = H̃ᵀ − U.
	for i := lo; i < hi; i++ {
		hRow, uRow, kRow := h.Row(i), u.Row(i), k.Row(i)
		htRow := ht.Row(i - lo)
		for j := 0; j < f; j++ {
			htRow[j] = kRow[j] + rho*(hRow[j]+uRow[j])
		}
		copy(h0.Row(i-lo), hRow)
	}
	// A header on the stack: a RowBlock view would be one allocation per
	// inner iteration.
	rhs := dense.Matrix{Rows: hi - lo, Cols: f, Stride: ht.Stride, Data: ht.Data}
	ch.SolveRows(&rhs, s.lanes[tid])
	for i := lo; i < hi; i++ {
		hRow, uRow, htRow := h.Row(i), u.Row(i), ht.Row(i-lo)
		for j := 0; j < f; j++ {
			hRow[j] = htRow[j] - uRow[j]
		}
	}
	// Pass 2, line 8: H = prox(H̃ᵀ − U).
	proxStart := time.Now()
	for i := lo; i < hi; i++ {
		s.op.ApplyRow(h.Row(i), rho)
	}
	s.proxNs[tid] += int64(time.Since(proxStart))
	// Pass 3, line 9: U = U + H − H̃ᵀ, with lines 10-11's numerators and
	// denominators.
	pNum, pDen, dNum, dDen := r.pNum, r.pDen, r.dNum, r.dDen
	for i := lo; i < hi; i++ {
		hRow, uRow := h.Row(i), u.Row(i)
		htRow, h0Row := ht.Row(i-lo), h0.Row(i-lo)
		for j := 0; j < f; j++ {
			uRow[j] += hRow[j] - htRow[j]
			dp := hRow[j] - htRow[j]
			pNum += dp * dp
			pDen += hRow[j] * hRow[j]
			dd := hRow[j] - h0Row[j]
			dNum += dd * dd
			dDen += uRow[j] * uRow[j]
		}
	}
	*r = residuals{pNum, pDen, dNum, dDen}
}

// sweep runs one baseline iteration over rows [begin, end) in BlockSize-row
// tiles, carrying the residual sums across tiles so they add up in row
// order, exactly as one pass over the whole range would.
func (s *solver) sweep(tid, begin, end int) residuals {
	var r residuals
	for lo := begin; lo < end; lo += s.bs {
		s.iterate(tid, lo, min(lo+s.bs, end), s.rho, s.ch, &r)
	}
	return r
}

// AbsTol is the per-element absolute residual floor combined with the
// paper's relative criterion. Blocks whose optimal primal (or dual) state is
// zero have vanishing denominators in r = ‖H−H̃ᵀ‖²/‖H‖² and
// s = ‖H−H₀‖²/‖U‖²; the absolute floor (Boyd et al., §3.3.1) lets such
// blocks terminate once their residuals are negligible in absolute terms.
const AbsTol = 1e-9

// converged applies the stopping rule r < ε and s < ε, where each squared
// residual is accepted when it falls below eps·denominator plus the absolute
// floor AbsTol²·count (count = rows·rank of the block).
func converged(pNum, pDen, dNum, dDen, eps float64, count int) bool {
	floor := AbsTol * AbsTol * float64(count)
	return pNum <= eps*pDen+floor && dNum <= eps*dDen+floor
}

// Run executes the baseline kernel-parallel ADMM (Algorithm 1, §IV-A):
// rows are statically partitioned across threads inside every iteration and
// the residuals are reduced globally, so all rows share one iteration count.
// Each thread sweeps its range in BlockSize-row tiles. h and u are updated in
// place; k and g are read-only.
func Run(h, u, k, g *dense.Matrix, ws *Workspace, cfg Config) (Stats, error) {
	s, err := newSolver(h, u, k, g, ws, cfg)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Blocks: 1}
	partial := make([]residuals, s.threads)
	for it := 1; it <= s.maxIters; it++ {
		// One row-parallel sweep per iteration; the join plus the residual
		// aggregation below is the per-iteration synchronization the blocked
		// variant eliminates.
		par.StaticT(cfg.Telem, h.Rows, s.threads, func(tid, begin, end int) {
			partial[tid] = s.sweep(tid, begin, end)
		})
		var r residuals
		for _, q := range partial {
			r.pNum += q.pNum
			r.pDen += q.pDen
			r.dNum += q.dNum
			r.dDen += q.dDen
		}
		st.Iterations = it
		st.RowIterations += int64(h.Rows)
		if converged(r.pNum, r.pDen, r.dNum, r.dDen, s.eps, h.Rows*h.Cols) {
			st.Converged = true
			break
		}
	}
	st.BlockIters = []int{st.Iterations}
	st.Timing = s.timing()
	return st, nil
}

// RunBlocked executes the blockwise reformulation (§IV-B): rows are split
// into blocks of cfg.BlockSize, each block iterates Algorithm 1 on its own
// rows until its own residuals converge, and blocks are dispatched to
// threads dynamically (block-granular load balancing). h and u are updated
// in place; k and g are read-only.
func RunBlocked(h, u, k, g *dense.Matrix, ws *Workspace, cfg Config) (Stats, error) {
	s, err := newSolver(h, u, k, g, ws, cfg)
	if err != nil {
		return Stats{}, err
	}
	bs := s.bs
	nBlocks := (h.Rows + bs - 1) / bs
	if nBlocks == 0 {
		return Stats{Blocks: 0, Converged: true, Timing: s.timing()}, nil
	}

	iters := make([]int, nBlocks)
	convergedFlags := make([]bool, nBlocks)
	rowIters := make([]int64, nBlocks)

	ratio := cfg.RhoRatio
	if ratio <= 0 {
		ratio = 10
	}
	ratioSq := ratio * ratio // residual pieces are squared norms
	adaptations := make([]int64, nBlocks)

	tracer := cfg.Telem.Tracer()
	// A worker reuses its tiles for every block it claims; their size
	// (2·BlockSize·F) is the cache-resident working set §IV-B relies on.
	par.DynamicItemsT(cfg.Telem, nBlocks, s.threads, func(tid, b int) {
		sp := tracer.Begin("admm", "admm_block", -1, tid, int64(b))
		begin := b * bs
		end := min(begin+bs, h.Rows)
		rows := end - begin
		// Per-block penalty state; the shared factorization is used until a
		// block adapts, after which it owns a private one.
		bRho, bCh := s.rho, s.ch
		for it := 1; it <= s.maxIters; it++ {
			var r residuals
			s.iterate(tid, begin, end, bRho, bCh, &r)
			pn, pd, dn, dd := r.pNum, r.pDen, r.dNum, r.dDen
			iters[b] = it
			rowIters[b] += int64(rows)
			if converged(pn, pd, dn, dd, s.eps, rows*h.Cols) {
				convergedFlags[b] = true
				break
			}
			if cfg.AdaptiveRho && it < s.maxIters {
				// Residual balancing (Boyd §3.4.1): grow ρ when the primal
				// residual dominates, shrink when the dual does. The scaled
				// dual U = Y/ρ is rescaled inversely.
				var scale float64
				switch {
				case pn > ratioSq*dn && dn >= 0:
					scale = 2
				case dn > ratioSq*pn && pn >= 0:
					scale = 0.5
				default:
					continue
				}
				newRho := bRho * scale
				refactorStart := time.Now()
				newCh, _, err := dense.NewCholeskyJitter(dense.AddScaledIdentity(g, newRho), 0, 30)
				s.cholNs[tid] += int64(time.Since(refactorStart))
				if err != nil {
					continue // keep the old penalty; adaptation is best-effort
				}
				bRho, bCh = newRho, newCh
				dense.Scale(u.RowBlock(begin, end), 1/scale)
				adaptations[b]++
			}
		}
		sp.End()
	})

	st := Stats{Blocks: nBlocks, Converged: true, BlockIters: iters, Timing: s.timing()}
	for _, a := range adaptations {
		st.RhoAdaptations += a
	}
	for b := 0; b < nBlocks; b++ {
		if iters[b] > st.Iterations {
			st.Iterations = iters[b]
		}
		st.RowIterations += rowIters[b]
		if !convergedFlags[b] {
			st.Converged = false
		}
	}
	return st, nil
}

func checkShapes(h, u, k, g *dense.Matrix) error {
	f := h.Cols
	if u.Rows != h.Rows || u.Cols != f {
		return fmt.Errorf("admm: dual shape %dx%d != primal %dx%d", u.Rows, u.Cols, h.Rows, f)
	}
	if k.Rows != h.Rows || k.Cols != f {
		return fmt.Errorf("admm: MTTKRP shape %dx%d != primal %dx%d", k.Rows, k.Cols, h.Rows, f)
	}
	if g.Rows != f || g.Cols != f {
		return fmt.Errorf("admm: Gram shape %dx%d != rank %d", g.Rows, g.Cols, f)
	}
	return nil
}
