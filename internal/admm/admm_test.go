package admm

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"aoadmm/internal/dense"
	"aoadmm/internal/prox"
)

// problem builds a well-conditioned synthetic subproblem: G = BᵀB + CᵀC
// style Gram (F x F SPD), K arbitrary. The unconstrained minimizer is
// H* = K·G⁻¹ (rowwise normal equations).
func problem(rows, rank int, seed int64) (h, u, k, g *dense.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	b := dense.Random(rank*3, rank, rng)
	g = dense.Gram(b, 1)
	g = dense.AddScaledIdentity(g, 0.5)
	k = dense.Random(rows, rank, rng)
	dense.Scale(k, 5)
	h = dense.Random(rows, rank, rng)
	u = dense.New(rows, rank)
	return h, u, k, g
}

// lsSolution computes H* = K·G⁻¹ by solving G xᵀ = K(i,:)ᵀ per row.
func lsSolution(k, g *dense.Matrix) *dense.Matrix {
	ch, err := dense.NewCholesky(g)
	if err != nil {
		panic(err)
	}
	out := k.Clone()
	ch.SolveRows(out)
	return out
}

// quadObjective evaluates the smooth part of the subproblem objective,
// ½ Σᵢ H(i,:)·G·H(i,:)ᵀ − Σᵢ H(i,:)·K(i,:)ᵀ, identical for all variants.
func quadObjective(h, k, g *dense.Matrix) float64 {
	var obj float64
	f := h.Cols
	for i := 0; i < h.Rows; i++ {
		row := h.Row(i)
		kRow := k.Row(i)
		for a := 0; a < f; a++ {
			ga := g.Row(a)
			for b := 0; b < f; b++ {
				obj += 0.5 * row[a] * ga[b] * row[b]
			}
			obj -= row[a] * kRow[a]
		}
	}
	return obj
}

func TestRunUnconstrainedConvergesToLeastSquares(t *testing.T) {
	h, u, k, g := problem(120, 6, 71)
	want := lsSolution(k, g)
	st, err := Run(h, u, k, g, nil, Config{Eps: 1e-8, MaxIters: 500, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge in %d iters", st.Iterations)
	}
	if d := dense.MaxAbsDiff(h, want); d > 1e-3 {
		t.Fatalf("unconstrained ADMM off least-squares by %v", d)
	}
}

func TestRunBlockedUnconstrainedConvergesToLeastSquares(t *testing.T) {
	h, u, k, g := problem(120, 6, 72)
	want := lsSolution(k, g)
	st, err := RunBlocked(h, u, k, g, nil, Config{Eps: 1e-8, MaxIters: 500, Threads: 3, BlockSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("did not converge")
	}
	if st.Blocks != (120+15)/16 {
		t.Fatalf("blocks = %d", st.Blocks)
	}
	if d := dense.MaxAbsDiff(h, want); d > 1e-3 {
		t.Fatalf("blocked ADMM off least-squares by %v", d)
	}
}

func TestNonNegativeOutputFeasibleAndImproves(t *testing.T) {
	for name, run := range map[string]func(h, u, k, g *dense.Matrix, ws *Workspace, cfg Config) (Stats, error){
		"baseline": Run, "blocked": RunBlocked,
	} {
		h, u, k, g := problem(80, 5, 73)
		// Make some rows of K negative-leaning so the constraint binds.
		for i := 0; i < 40; i++ {
			row := k.Row(i)
			for j := range row {
				row[j] = -row[j]
			}
		}
		before := quadObjective(h, k, g)
		st, err := run(h, u, k, g, nil, Config{Prox: prox.NonNegative{}, MaxIters: 200, Threads: 2, BlockSize: 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.Converged {
			t.Fatalf("%s: not converged", name)
		}
		for i := 0; i < h.Rows; i++ {
			for _, v := range h.Row(i) {
				if v < 0 {
					t.Fatalf("%s: infeasible output %v", name, v)
				}
			}
		}
		after := quadObjective(h, k, g)
		if after >= before {
			t.Fatalf("%s: objective did not improve: %v -> %v", name, before, after)
		}
	}
}

func TestNonNegativeMatchesActiveSetOnTinyProblem(t *testing.T) {
	// F=1: min ½ g h² − k h s.t. h >= 0 has closed form h = max(0, k/g).
	g := dense.FromRows([][]float64{{2}})
	k := dense.FromRows([][]float64{{4}, {-3}, {0}})
	h := dense.FromRows([][]float64{{0.5}, {0.5}, {0.5}})
	u := dense.New(3, 1)
	if _, err := Run(h, u, k, g, nil, Config{Prox: prox.NonNegative{}, Eps: 1e-10, MaxIters: 1000}); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0, 0}
	for i, w := range want {
		if math.Abs(h.At(i, 0)-w) > 1e-4 {
			t.Fatalf("row %d: %v, want %v", i, h.At(i, 0), w)
		}
	}
}

func TestL1ShrinksSolution(t *testing.T) {
	h1, u1, k, g := problem(60, 4, 74)
	h2 := h1.Clone()
	u2 := u1.Clone()
	if _, err := Run(h1, u1, k, g, nil, Config{Eps: 1e-8, MaxIters: 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(h2, u2, k, g, nil, Config{Prox: prox.L1{Lambda: 2}, Eps: 1e-8, MaxIters: 500}); err != nil {
		t.Fatal(err)
	}
	n1 := 0.0
	n2 := 0.0
	for i := range h1.Data {
		n1 += math.Abs(h1.Data[i])
		n2 += math.Abs(h2.Data[i])
	}
	if n2 >= n1 {
		t.Fatalf("l1-regularized solution not smaller: %v vs %v", n2, n1)
	}
}

func TestBlockedMatchesBaselineSolution(t *testing.T) {
	hb, ub, k, g := problem(200, 5, 75)
	hB := hb.Clone()
	uB := ub.Clone()
	cfg := Config{Prox: prox.NonNegative{}, Eps: 1e-8, MaxIters: 500, Threads: 2}
	if _, err := Run(hb, ub, k, g, nil, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.BlockSize = 32
	if _, err := RunBlocked(hB, uB, k, g, nil, cfg); err != nil {
		t.Fatal(err)
	}
	// Both solve the same strictly convex problem; solutions must agree.
	if d := dense.MaxAbsDiff(hb, hB); d > 1e-3 {
		t.Fatalf("blocked and baseline disagree by %v", d)
	}
}

func TestBlockedSavesWorkOnNonUniformRows(t *testing.T) {
	// Construct the paper's non-uniform convergence scenario: a few
	// "high-signal" rows with large K entries need many iterations under a
	// binding constraint; most rows are easy. The baseline must iterate all
	// rows until the hardest converge; blocking localizes the work.
	rng := rand.New(rand.NewSource(76))
	rows, rank := 500, 5
	b := dense.Random(rank*3, rank, rng)
	g := dense.AddScaledIdentity(dense.Gram(b, 1), 0.5)
	k := dense.New(rows, rank)
	for i := 0; i < rows; i++ {
		row := k.Row(i)
		scale := 0.01
		if i < 10 { // high-signal rows
			scale = 100
		}
		for j := range row {
			row[j] = (rng.Float64()*2 - 1) * scale
		}
	}
	cfg := Config{Prox: prox.NonNegative{}, Eps: 1e-6, MaxIters: 300, BlockSize: 50, Threads: 1}

	h1 := dense.Random(rows, rank, rng)
	u1 := dense.New(rows, rank)
	hBase := h1.Clone()
	base, err := Run(hBase, u1.Clone(), k, g, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hBlk := h1.Clone()
	blk, err := RunBlocked(hBlk, u1.Clone(), k, g, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// (i) Convergence is non-uniform across blocks: block iteration counts
	// must differ (the mechanism §IV-B exploits).
	if minIt := slices.Min(blk.BlockIters); minIt >= blk.Iterations {
		t.Fatalf("expected non-uniform block iterations, got min=%d max=%d", minIt, blk.Iterations)
	}
	// (ii) Work is localized: total row-iterations must be below running
	// every row to the slowest block's count, which is what a baseline whose
	// aggregate criterion waited for all rows would cost.
	if blk.RowIterations >= int64(rows)*int64(blk.Iterations) {
		t.Fatalf("blocked row-iterations %d not below uniform cost %d", blk.RowIterations, int64(rows)*int64(blk.Iterations))
	}
	// (iii) Quality: the baseline's aggregated residual is dominated by the
	// high-norm rows and stops early (here after %d iters), leaving other
	// rows under-converged; per-block convergence must reach an equal or
	// lower objective.
	if base.Iterations >= blk.Iterations {
		t.Fatalf("expected baseline aggregate stop (%d) before slowest block (%d)", base.Iterations, blk.Iterations)
	}
	objBase := quadObjective(hBase, k, g)
	objBlk := quadObjective(hBlk, k, g)
	if objBlk > objBase+1e-9*math.Abs(objBase) {
		t.Fatalf("blocked objective %v worse than baseline %v", objBlk, objBase)
	}
}

func TestShapeValidation(t *testing.T) {
	h := dense.New(4, 2)
	u := dense.New(4, 2)
	k := dense.New(4, 2)
	g := dense.AddScaledIdentity(dense.New(2, 2), 1)
	bad := []struct {
		h, u, k, g *dense.Matrix
	}{
		{h, dense.New(3, 2), k, g},
		{h, u, dense.New(4, 3), g},
		{h, u, k, dense.New(3, 3)},
	}
	for i, c := range bad {
		if _, err := Run(c.h, c.u, c.k, c.g, nil, Config{}); err == nil {
			t.Errorf("case %d: Run accepted bad shapes", i)
		}
		if _, err := RunBlocked(c.h, c.u, c.k, c.g, nil, Config{}); err == nil {
			t.Errorf("case %d: RunBlocked accepted bad shapes", i)
		}
	}
	if _, err := Run(h, u, k, dense.New(0, 0), nil, Config{}); err == nil {
		t.Error("empty Gram accepted")
	}
}

func TestBlockedThreadCountsAgree(t *testing.T) {
	// The blocked solve must give identical results regardless of thread
	// count (blocks are independent).
	h0, u0, k, g := problem(130, 4, 77)
	var ref *dense.Matrix
	for _, threads := range []int{1, 2, 7} {
		h := h0.Clone()
		u := u0.Clone()
		if _, err := RunBlocked(h, u, k, g, nil, Config{Prox: prox.NonNegative{}, Threads: threads, BlockSize: 13, Eps: 1e-6, MaxIters: 300}); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = h
			continue
		}
		if d := dense.MaxAbsDiff(ref, h); d != 0 {
			t.Fatalf("threads=%d: result differs by %v (blocks are independent; must be bitwise equal)", threads, d)
		}
	}
}

func TestWorkspaceReuse(t *testing.T) {
	for name, run := range map[string]func(h, u, k, g *dense.Matrix, ws *Workspace, cfg Config) (Stats, error){
		"baseline": Run, "blocked": RunBlocked,
	} {
		ws := &Workspace{}
		cfg := Config{MaxIters: 5, Threads: 2, BlockSize: 16}
		h, u, k, g := problem(50, 3, 78)
		if _, err := run(h, u, k, g, ws, cfg); err != nil {
			t.Fatal(err)
		}
		if len(ws.ht) != 2 || ws.ht[0].Rows != 16 {
			t.Fatalf("%s: tiles %d x %d rows, want 2 x 16", name, len(ws.ht), ws.ht[0].Rows)
		}
		first := ws.ht[0]
		// A second same-shape solve must reuse the tiles.
		h2, u2, k2, _ := problem(50, 3, 79)
		if _, err := run(h2, u2, k2, g, ws, cfg); err != nil {
			t.Fatal(err)
		}
		if ws.ht[0] != first {
			t.Fatalf("%s: workspace not reused for same-shape solve", name)
		}
		// More rows fit the same BlockSize-row tiles.
		h3, u3, k3, _ := problem(80, 3, 80)
		if _, err := run(h3, u3, k3, g, ws, cfg); err != nil {
			t.Fatal(err)
		}
		if ws.ht[0] != first {
			t.Fatalf("%s: workspace not reused for a taller solve", name)
		}
		// A wider rank must grow them.
		h4, u4, k4, g4 := problem(50, 4, 81)
		if _, err := run(h4, u4, k4, g4, ws, cfg); err != nil {
			t.Fatal(err)
		}
		if ws.ht[0] == first || ws.ht[0].Cols != 4 {
			t.Fatalf("%s: workspace not grown for a wider solve", name)
		}
	}
}

func TestEmptyRowsNoop(t *testing.T) {
	h := dense.New(0, 3)
	u := dense.New(0, 3)
	k := dense.New(0, 3)
	g := dense.AddScaledIdentity(dense.New(3, 3), 1)
	st, err := RunBlocked(h, u, k, g, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 0 || !st.Converged {
		t.Fatalf("empty solve stats: %+v", st)
	}
}

func TestConvergedHelper(t *testing.T) {
	if !converged(0, 0, 0, 0, 1e-2, 100) {
		t.Fatal("all-zero state must count as converged")
	}
	if converged(1, 0, 0, 0, 1e-2, 100) {
		t.Fatal("non-trivial numerator over zero denominator must not converge")
	}
	if !converged(1e-5, 1, 1e-5, 1, 1e-2, 100) {
		t.Fatal("small residuals must converge")
	}
	if converged(1, 1, 1e-5, 1, 1e-2, 100) {
		t.Fatal("large primal residual must not converge")
	}
	// Absolute floor: residual below AbsTol²·count converges regardless of
	// the denominators.
	if !converged(1e-19, 0, 1e-19, 0, 1e-8, 100) {
		t.Fatal("sub-floor residual must converge")
	}
}

func TestAdaptiveRhoConvergesToSameSolution(t *testing.T) {
	h0, u0, k, g := problem(150, 5, 490)
	cfg := Config{Prox: prox.NonNegative{}, Eps: 1e-9, MaxIters: 1000, BlockSize: 25}
	hFixed, uFixed := h0.Clone(), u0.Clone()
	if _, err := RunBlocked(hFixed, uFixed, k, g, nil, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.AdaptiveRho = true
	hAdapt, uAdapt := h0.Clone(), u0.Clone()
	st, err := RunBlocked(hAdapt, uAdapt, k, g, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("adaptive run did not converge")
	}
	// Both must reach the same unique minimizer of the strictly convex
	// problem.
	if d := dense.MaxAbsDiff(hFixed, hAdapt); d > 1e-3 {
		t.Fatalf("adaptive and fixed rho disagree by %v", d)
	}
}

func TestAdaptiveRhoHelpsIllConditionedBlocks(t *testing.T) {
	// An ill-conditioned Gram (large spread of eigenvalues) makes the fixed
	// rho = trace(G)/F a poor choice for some blocks; residual balancing
	// must converge in no more (and typically fewer) iterations.
	rng := rand.New(rand.NewSource(491))
	rank := 6
	g := dense.New(rank, rank)
	for i := 0; i < rank; i++ {
		g.Set(i, i, math.Pow(10, float64(i)-3)) // eigenvalues 1e-3 .. 1e2
	}
	rows := 200
	k := dense.Random(rows, rank, rng)
	dense.Scale(k, 5)
	h0 := dense.Random(rows, rank, rng)
	base := Config{Prox: prox.NonNegative{}, Eps: 1e-8, MaxIters: 3000, BlockSize: 50}

	fixed, err := RunBlocked(h0.Clone(), dense.New(rows, rank), k, g, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	base.AdaptiveRho = true
	adaptive, err := RunBlocked(h0.Clone(), dense.New(rows, rank), k, g, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.RhoAdaptations == 0 {
		t.Fatal("ill-conditioned problem triggered no adaptations")
	}
	if adaptive.RowIterations > fixed.RowIterations {
		t.Fatalf("adaptive rho did more work: %d vs %d row-iterations",
			adaptive.RowIterations, fixed.RowIterations)
	}
}

func TestAdaptiveRhoStatsZeroWhenDisabled(t *testing.T) {
	h, u, k, g := problem(60, 4, 492)
	st, err := RunBlocked(h, u, k, g, nil, Config{MaxIters: 20, BlockSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	if st.RhoAdaptations != 0 {
		t.Fatalf("adaptations %d with AdaptiveRho off", st.RhoAdaptations)
	}
}

func TestRunBlockedBlockIters(t *testing.T) {
	h, u, k, g := problem(120, 6, 73)
	st, err := RunBlocked(h, u, k, g, nil,
		Config{Eps: 1e-4, MaxIters: 100, Threads: 2, BlockSize: 16, Prox: prox.NonNegative{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.BlockIters) != st.Blocks {
		t.Fatalf("len(BlockIters) = %d, Blocks = %d", len(st.BlockIters), st.Blocks)
	}
	if minIt := slices.Min(st.BlockIters); minIt <= 0 {
		t.Fatalf("block reported %d iterations", minIt)
	}
	if maxIt := slices.Max(st.BlockIters); maxIt != st.Iterations {
		t.Fatalf("max block iters %d != Iterations %d", maxIt, st.Iterations)
	}
}

func TestRunBaselineBlockIters(t *testing.T) {
	h, u, k, g := problem(60, 4, 74)
	st, err := Run(h, u, k, g, nil, Config{Eps: 1e-6, MaxIters: 200, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.BlockIters) != 1 || st.BlockIters[0] != st.Iterations {
		t.Fatalf("baseline BlockIters = %v, Iterations = %d", st.BlockIters, st.Iterations)
	}
}

func TestCollectTiming(t *testing.T) {
	h, u, k, g := problem(200, 8, 75)
	st, err := RunBlocked(h, u, k, g, nil,
		Config{Eps: 1e-6, MaxIters: 200, Threads: 2, BlockSize: 32, Prox: prox.NonNegative{}, AdaptiveRho: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Timing.Cholesky <= 0 || st.Timing.Prox <= 0 {
		t.Fatalf("blocked timing = %+v, want Cholesky and Prox > 0", st.Timing)
	}
}

func TestRunCollectTiming(t *testing.T) {
	h, u, k, g := problem(80, 4, 76)
	st, err := Run(h, u, k, g, nil,
		Config{Eps: 1e-6, MaxIters: 200, Threads: 2, Prox: prox.NonNegative{}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Timing.Cholesky <= 0 || st.Timing.Prox <= 0 {
		t.Fatalf("baseline timing = %+v, want Cholesky and Prox > 0", st.Timing)
	}
}

// With a reused Workspace, RunBlocked's allocations are per call (solver
// state, the Cholesky factor, per-block stats), never per inner iteration:
// a solve held to 40 iterations per block allocates no more than one held to
// 2. Blocks of 50 and 30 rows take the lane solve, and the 7-row block the
// per-row fallback.
func TestRunBlockedAllocsDoNotGrowWithIterations(t *testing.T) {
	h0, u0, k, g := problem(137, 12, 78)
	for _, threads := range []int{1, 2} {
		ws := &Workspace{}
		allocs := func(iters int) float64 {
			cfg := Config{Eps: 1e-300, MaxIters: iters, Threads: threads, Prox: prox.NonNegative{}}
			h, u := h0.Clone(), u0.Clone()
			return testing.AllocsPerRun(20, func() {
				copy(h.Data, h0.Data)
				copy(u.Data, u0.Data)
				if _, err := RunBlocked(h, u, k, g, ws, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(2), allocs(40)
		if long > short {
			t.Errorf("threads=%d: %v allocations at 40 iterations per block, %v at 2", threads, long, short)
		}
	}
}
