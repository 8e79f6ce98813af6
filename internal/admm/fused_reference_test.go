package admm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"aoadmm/internal/dense"
	"aoadmm/internal/par"
	"aoadmm/internal/prox"
)

// fusedIterate is the reference row loop: Algorithm 1's lines 6-11 as one
// fused pass per row (solve, prox, dual update, residual sums). Run and
// RunBlocked split it into three passes over the rows; they must stay
// bitwise equal to this.
func fusedIterate(h, u, k, ht, h0 *dense.Matrix, op prox.Operator, rho float64, ch *dense.Cholesky) (pNum, pDen, dNum, dDen float64) {
	f := h.Cols
	for i := 0; i < h.Rows; i++ {
		hRow, uRow, kRow := h.Row(i), u.Row(i), k.Row(i)
		htRow, h0Row := ht.Row(i), h0.Row(i)
		for j := 0; j < f; j++ {
			htRow[j] = kRow[j] + rho*(hRow[j]+uRow[j])
		}
		ch.SolveVec(htRow)
		copy(h0Row, hRow)
		for j := 0; j < f; j++ {
			hRow[j] = htRow[j] - uRow[j]
		}
		op.ApplyRow(hRow, rho)
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
	return pNum, pDen, dNum, dDen
}

// fusedRun is the baseline driver over fusedIterate: one fused pass over
// each thread's whole static range per iteration.
func fusedRun(h, u, k, g *dense.Matrix, cfg Config) Stats {
	rho, ch, err := prepare(g)
	if err != nil {
		panic(err)
	}
	threads := par.Threads(cfg.Threads)
	ht, h0 := dense.New(h.Rows, h.Cols), dense.New(h.Rows, h.Cols)
	st := Stats{Blocks: 1}
	for it := 1; it <= cfg.maxIters(); it++ {
		partial := make([]residuals, threads)
		par.StaticT(nil, h.Rows, threads, func(tid, begin, end int) {
			pn, pd, dn, dd := fusedIterate(h.RowBlock(begin, end), u.RowBlock(begin, end), k.RowBlock(begin, end),
				ht.RowBlock(begin, end), h0.RowBlock(begin, end), cfg.prox(), rho, ch)
			partial[tid] = residuals{pn, pd, dn, dd}
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
		if converged(r.pNum, r.pDen, r.dNum, r.dDen, cfg.eps(), h.Rows*h.Cols) {
			st.Converged = true
			break
		}
	}
	st.BlockIters = []int{st.Iterations}
	return st
}

// fusedRunBlocked is the blocked driver over fusedIterate, with the same
// per-block residual balancing as RunBlocked.
func fusedRunBlocked(h, u, k, g *dense.Matrix, cfg Config) Stats {
	rho, ch, err := prepare(g)
	if err != nil {
		panic(err)
	}
	bs := cfg.blockSize()
	nBlocks := (h.Rows + bs - 1) / bs
	st := Stats{Blocks: nBlocks, Converged: true, BlockIters: make([]int, nBlocks)}
	ratioSq := 100.0
	for b := 0; b < nBlocks; b++ {
		begin, end := b*bs, min(b*bs+bs, h.Rows)
		hb, ub, kb := h.RowBlock(begin, end), u.RowBlock(begin, end), k.RowBlock(begin, end)
		ht, h0 := dense.New(end-begin, h.Cols), dense.New(end-begin, h.Cols)
		bRho, bCh := rho, ch
		blockDone := false
		for it := 1; it <= cfg.maxIters(); it++ {
			pn, pd, dn, dd := fusedIterate(hb, ub, kb, ht, h0, cfg.prox(), bRho, bCh)
			st.BlockIters[b] = it
			st.RowIterations += int64(end - begin)
			if converged(pn, pd, dn, dd, cfg.eps(), (end-begin)*h.Cols) {
				blockDone = true
				break
			}
			if cfg.AdaptiveRho && it < cfg.maxIters() {
				var scale float64
				switch {
				case pn > ratioSq*dn && dn >= 0:
					scale = 2
				case dn > ratioSq*pn && pn >= 0:
					scale = 0.5
				default:
					continue
				}
				newCh, _, err := dense.NewCholeskyJitter(dense.AddScaledIdentity(g, bRho*scale), 0, 30)
				if err != nil {
					continue
				}
				bRho, bCh = bRho*scale, newCh
				dense.Scale(ub, 1/scale)
				st.RhoAdaptations++
			}
		}
		if !blockDone {
			st.Converged = false
		}
	}
	st.Iterations = slices.Max(st.BlockIters)
	return st
}

// TestRowLoopDeterministicVsFusedReference pins the three-pass row loop to
// the fused one bit for bit: every H and U element and every Stats field
// except Timing, for both drivers, across operators, adaptive ρ, thread
// counts, a BlockSize that does not divide the rows, fewer rows than
// BlockSize, and the 1-row fold-in shape.
func TestRowLoopDeterministicVsFusedReference(t *testing.T) {
	ops := []prox.Operator{prox.NonNegative{}, prox.NonNegL1{Lambda: 0.1}, prox.Simplex{}}
	shapes := []struct{ rows, blockSize int }{
		{130, 16}, // 16 does not divide 130
		{7, 16},   // fewer rows than one block
		{1, 0},    // the fold-in shape, default BlockSize
	}
	ws := &Workspace{}
	for _, op := range ops {
		for _, adaptive := range []bool{false, true} {
			for _, threads := range []int{1, 2} {
				for _, sh := range shapes {
					name := fmt.Sprintf("%s/adaptive=%v/threads=%d/rows=%d/bs=%d", op.Name(), adaptive, threads, sh.rows, sh.blockSize)
					cfg := Config{Prox: op, Eps: 1e-6, MaxIters: 60, Threads: threads, BlockSize: sh.blockSize, AdaptiveRho: adaptive}
					h0, u0, k, g := problem(sh.rows, 6, int64(900+sh.rows))
					checkResidualCarry(t, name, h0, u0, k, g, cfg)
					for _, drv := range []struct {
						name string
						run  func(h, u, k, g *dense.Matrix, ws *Workspace, cfg Config) (Stats, error)
						ref  func(h, u, k, g *dense.Matrix, cfg Config) Stats
					}{
						{"baseline", Run, fusedRun},
						{"blocked", RunBlocked, fusedRunBlocked},
					} {
						hRef, uRef := h0.Clone(), u0.Clone()
						want := drv.ref(hRef, uRef, k, g, cfg)
						h, u := h0.Clone(), u0.Clone()
						got, err := drv.run(h, u, k, g, ws, cfg)
						if err != nil {
							t.Fatalf("%s %s: %v", drv.name, name, err)
						}
						got.Timing = Timing{}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("%s %s: stats %+v, fused reference %+v", drv.name, name, got, want)
						}
						if i := firstBitDiff(h, hRef); i >= 0 {
							t.Errorf("%s %s: H element %d differs from the fused reference", drv.name, name, i)
						}
						if i := firstBitDiff(u, uRef); i >= 0 {
							t.Errorf("%s %s: U element %d differs from the fused reference", drv.name, name, i)
						}
					}
				}
			}
		}
	}
}

// checkResidualCarry pins the residual sums, which reach Stats only through
// a convergence threshold: walking the rows in BlockSize-row tiles with the
// sums carried across tiles must give the fused pass's sums bit for bit.
func checkResidualCarry(t *testing.T, name string, h0, u0, k, g *dense.Matrix, cfg Config) {
	t.Helper()
	h, u := h0.Clone(), u0.Clone()
	s, err := newSolver(h, u, k, g, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hRef, uRef := h0.Clone(), u0.Clone()
	ht, h0Ref := dense.New(h.Rows, h.Cols), dense.New(h.Rows, h.Cols)
	for it := 0; it < 5; it++ {
		r := s.sweep(0, 0, h.Rows)
		pn, pd, dn, dd := fusedIterate(hRef, uRef, k, ht, h0Ref, s.op, s.rho, s.ch)
		for _, p := range [][2]float64{{r.pNum, pn}, {r.pDen, pd}, {r.dNum, dn}, {r.dDen, dd}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("%s: iteration %d residuals %+v, fused reference {%v %v %v %v}", name, it, r, pn, pd, dn, dd)
			}
		}
	}
}

// firstBitDiff returns the index of the first element whose float64 bits
// differ between a and b, or -1 when they are bitwise equal.
func firstBitDiff(a, b *dense.Matrix) int {
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return i
		}
	}
	return -1
}
