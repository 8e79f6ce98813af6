package mttkrp

import (
	"fmt"
	"sort"

	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/par"
)

// ComputeMode evaluates K = X(mode)·(⊙_{n≠mode} Aₙ) for ANY mode using a
// single CSF tree, regardless of which mode the tree is rooted at — the
// memory-efficient operating point of SPLATT (one tree instead of one per
// mode, at the cost of synchronization on non-root output modes).
//
// For the root mode this dispatches to the owner-computes Compute. For a
// mode at depth d > 0 the traversal carries a "prefix" product of the
// factor rows above depth d and, at each depth-d node, multiplies it with
// the "below" aggregate of the subtree (the same bottom-up accumulation the
// root kernel uses) into the output row of that node's index. Because
// several slices can update the same output row, the root slices are split
// into one fixed group per thread — contiguous, near-equal in non-zeros —
// each group accumulates into a private output matrix, and the partials are
// reduced in group order (privatization). Which slices a buffer sums
// therefore never depends on scheduling: the result is bitwise-reproducible
// across runs at a fixed thread count, though not across thread counts.
// opts.Chunk does not apply to non-root modes.
func ComputeMode(t *csf.Tensor, mode int, factors []*dense.Matrix, out *dense.Matrix, leaf LeafFactor, opts Options) {
	depth := -1
	for d, m := range t.Perm {
		if m == mode {
			depth = d
			break
		}
	}
	if depth < 0 {
		panic(fmt.Sprintf("mttkrp: mode %d not in tree permutation %v", mode, t.Perm))
	}
	if depth == 0 {
		Compute(t, factors, out, leaf, opts)
		return
	}
	order := t.Order()
	rank := out.Cols
	if out.Rows != t.Dims[mode] {
		panic(fmt.Sprintf("mttkrp: out has %d rows, mode %d has %d", out.Rows, mode, t.Dims[mode]))
	}
	if leaf == nil && depth != order-1 {
		leaf = DenseLeaf{M: factors[t.Perm[order-1]]}
	}

	threads := par.Threads(opts.Threads)
	out.Zero()
	groups := sliceGroups(t, threads)
	privs := make([]*dense.Matrix, threads)
	lr := resolveLeaf(leaf)
	leafIDs := t.FIDs[order-1]

	par.StaticT(opts.Telem, threads, threads, func(_, gBegin, gEnd int) {
		var priv *dense.Matrix
		// Prefix buffers: prefixes[d] holds the product of factor rows for
		// depths < d, for d in 1..depth. Below-buffers cover depths
		// depth..order-2.
		prefixes := make([][]float64, depth+1)
		for d := 1; d <= depth; d++ {
			prefixes[d] = make([]float64, rank)
		}
		belows := make([][]float64, order-1)
		for d := depth; d < order-1; d++ {
			belows[d] = make([]float64, rank)
		}

		// below adds the subtree aggregates of internal node n's children
		// at depth d+1 into dst, excluding the output mode's factor: leaves
		// contribute val·F_leaf(row,:), internal nodes multiply their own
		// aggregate by their factor row.
		var below func(d, n int, dst []float64)
		below = func(d, n int, dst []float64) {
			b, e := t.Children(d, n)
			if d+1 == order-1 {
				lr.accum(dst, leafIDs[b:e], t.Vals[b:e])
				return
			}
			buf := belows[d+1]
			for ch := b; ch < e; ch++ {
				clear(buf)
				below(d+1, ch, buf)
				dense.MulAddRow(dst, buf, factors[t.Perm[d+1]].Row(int(t.FIDs[d+1][ch])))
			}
		}

		// walk carries the prefix product of factor rows above depth d.
		var walk func(d, n int, prefix []float64)
		walk = func(d, n int, prefix []float64) {
			if d == depth {
				outRow := priv.Row(int(t.FIDs[d][n]))
				if d == order-1 {
					// Leaf-mode output: below the node is just its value.
					dense.AxpyRow(outRow, t.Vals[n], prefix)
					return
				}
				buf := belows[d]
				clear(buf)
				below(d, n, buf)
				dense.MulAddRow(outRow, buf, prefix)
				return
			}
			// Extend the prefix with this node's factor row and recurse.
			// Siblings reuse the buffer sequentially: a child's subtree is
			// fully processed before the next sibling overwrites it.
			ext := prefixes[d+1]
			frow := factors[t.Perm[d]].Row(int(t.FIDs[d][n]))
			for i := range ext {
				ext[i] = prefix[i] * frow[i]
			}
			b, e := t.Children(d, n)
			for ch := b; ch < e; ch++ {
				walk(d+1, ch, ext)
			}
		}

		ones := make([]float64, rank)
		for i := range ones {
			ones[i] = 1
		}
		for g := gBegin; g < gEnd; g++ {
			priv = dense.New(out.Rows, rank)
			privs[g] = priv
			for s := groups[g]; s < groups[g+1]; s++ {
				walk(0, s, ones)
			}
		}
	})

	// Deterministic reduction in group order.
	for _, priv := range privs {
		dense.AXPY(out, 1, priv)
	}
}

// sliceGroups splits t's root slices into n contiguous groups of near-equal
// non-zero count: group g is slices [b[g], b[g+1]) of the returned b.
func sliceGroups(t *csf.Tensor, n int) []int {
	nSlices := t.NSlices()
	b := make([]int, n+1)
	b[n] = nSlices
	for g := 1; g < n; g++ {
		target := g * t.NNZ() / n
		b[g] = sort.Search(nSlices, func(s int) bool { return firstLeaf(t, s) >= target })
	}
	return b
}

// firstLeaf returns the index of root slice s's first non-zero.
func firstLeaf(t *csf.Tensor, s int) int {
	n := s
	for d := 0; d < t.Order()-1; d++ {
		n = int(t.FPtr[d][n])
	}
	return n
}
