// Package mttkrp implements the matricized-tensor times Khatri-Rao product,
// K = X(m) · (⊙_{n≠m} Aₙ), over CSF tensors (Algorithm 3 of the paper,
// generalized to arbitrary order).
//
// MTTKRP is the dominant sparse kernel of AO-ADMM: O(F·nnz) work, memory
// bound by accesses to the factor matrices. The leaf-level factor — accessed
// once per tensor non-zero — is abstracted behind LeafFactor so the dense,
// CSR, and hybrid CSR-H representations of §IV-C plug in without touching
// the traversal.
package mttkrp

import (
	"fmt"

	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/par"
)

// LeafFactor provides rank-length row accumulation for the leaf-level factor
// matrix: AccumRow performs dst += scale · M(row, :). sparse.CSR and
// sparse.Hybrid satisfy it directly; DenseLeaf adapts a dense matrix.
type LeafFactor interface {
	AccumRow(dst []float64, row int, scale float64)
}

// DenseLeaf adapts a dense factor matrix to the LeafFactor interface (the
// baseline "DENSE" configuration of Table II).
type DenseLeaf struct{ M *dense.Matrix }

// AccumRow implements LeafFactor.
func (d DenseLeaf) AccumRow(dst []float64, row int, scale float64) {
	dense.AxpyRow(dst, scale, d.M.Row(row))
}

// leafRows is a LeafFactor resolved once per kernel call: a DenseLeaf's
// matrix is called directly, so the per-non-zero loop neither dispatches
// through the interface nor hides the row primitive behind it.
type leafRows struct {
	dense *dense.Matrix
	other LeafFactor
}

func resolveLeaf(leaf LeafFactor) leafRows {
	if d, ok := leaf.(DenseLeaf); ok {
		return leafRows{dense: d.M}
	}
	return leafRows{other: leaf}
}

// accum adds vals[k] · leaf(ids[k], :) into dst for each k, in order: the
// leaf fiber under one CSF node.
func (l leafRows) accum(dst []float64, ids []int32, vals []float64) {
	vals = vals[:len(ids)]
	if m := l.dense; m != nil {
		for k, id := range ids {
			dense.AxpyRow(dst, vals[k], m.Row(int(id)))
		}
		return
	}
	for k, id := range ids {
		l.other.AccumRow(dst, int(id), vals[k])
	}
}

// Options configures a Compute call.
type Options struct {
	// Threads is the worker count (<= 0 means GOMAXPROCS).
	Threads int
	// Chunk is the number of root slices claimed per scheduling step of the
	// root-mode dynamic schedule (ComputeMode's non-root modes use fixed
	// slice groups instead). <= 0 picks a heuristic based on slice count.
	Chunk int
	// Telem, when non-nil, receives per-thread scheduler counters from the
	// dynamic slice dispatch (load-imbalance observability).
	Telem *par.Telemetry
}

func (o Options) chunk(nSlices, threads int) int {
	if o.Chunk > 0 {
		return o.Chunk
	}
	// Aim for ~16 chunks per thread so power-law slices load balance.
	c := nSlices / (threads * 16)
	if c < 1 {
		c = 1
	}
	return c
}

// Compute evaluates K = X(m)·(⊙_{n≠m} Aₙ) where X is the CSF tree t (which
// must be rooted at mode m), factors holds one dense factor per mode (the
// root mode's entry is unused), and leaf optionally overrides the leaf-level
// factor representation (nil means dense). The result is written to out,
// which must be Dims[m] x F; rows of out whose slice is empty are zeroed.
//
// Parallelism is over root slices with dynamic chunk scheduling: each output
// row is owned by exactly one traversal, so no synchronization is needed
// (the owner-computes strategy of SPLATT).
func Compute(t *csf.Tensor, factors []*dense.Matrix, out *dense.Matrix, leaf LeafFactor, opts Options) {
	order := t.Order()
	root := t.RootMode()
	rank := out.Cols
	if out.Rows != t.Dims[root] {
		panic(fmt.Sprintf("mttkrp: out has %d rows, mode %d has %d", out.Rows, root, t.Dims[root]))
	}
	for m, f := range factors {
		if m == root || f == nil {
			continue
		}
		if f.Cols != rank {
			panic(fmt.Sprintf("mttkrp: factor %d rank %d != %d", m, f.Cols, rank))
		}
		if f.Rows != t.Dims[m] {
			panic(fmt.Sprintf("mttkrp: factor %d has %d rows, mode needs %d", m, f.Rows, t.Dims[m]))
		}
	}
	if leaf == nil {
		leaf = DenseLeaf{M: factors[t.Perm[order-1]]}
	}

	threads := par.Threads(opts.Threads)
	out.Zero()

	nSlices := t.NSlices()
	chunk := opts.chunk(nSlices, threads)

	if order == 3 {
		compute3(t, factors, out, leaf, threads, chunk, opts.Telem)
		return
	}
	computeGeneric(t, factors, out, leaf, threads, chunk, opts.Telem)
}

// compute3 is Algorithm 3: the specialized three-mode traversal.
func compute3(t *csf.Tensor, factors []*dense.Matrix, out *dense.Matrix, leaf LeafFactor, threads, chunk int, tel *par.Telemetry) {
	rank := out.Cols
	bFac := factors[t.Perm[1]]
	fids0, fids1, fids2 := t.FIDs[0], t.FIDs[1], t.FIDs[2]
	fptr0, fptr1 := t.FPtr[0], t.FPtr[1]
	vals := t.Vals
	lr := resolveLeaf(leaf)

	par.DynamicT(tel, t.NSlices(), chunk, threads, func(tid, begin, end int) {
		z := make([]float64, rank)
		for s := begin; s < end; s++ {
			outRow := out.Row(int(fids0[s]))
			for fb, fe := fptr0[s], fptr0[s+1]; fb < fe; fb++ {
				clear(z)
				lb, le := fptr1[fb], fptr1[fb+1]
				lr.accum(z, fids2[lb:le], vals[lb:le])
				dense.MulAddRow(outRow, z, bFac.Row(int(fids1[fb])))
			}
		}
	})
}

// computeGeneric handles arbitrary order with a per-thread buffer stack.
func computeGeneric(t *csf.Tensor, factors []*dense.Matrix, out *dense.Matrix, leaf LeafFactor, threads, chunk int, tel *par.Telemetry) {
	order := t.Order()
	rank := out.Cols
	lr := resolveLeaf(leaf)
	leafIDs := t.FIDs[order-1]

	par.DynamicT(tel, t.NSlices(), chunk, threads, func(tid, begin, end int) {
		// One accumulation buffer per internal depth (1..order-2).
		bufs := make([][]float64, order-1)
		for d := 1; d < order-1; d++ {
			bufs[d] = make([]float64, rank)
		}
		// children adds the subtree aggregates of node n's children at
		// depth d+1 into dst; the deepest internal level adds its leaf
		// fiber directly.
		var children func(d, n int, dst []float64)
		children = func(d, n int, dst []float64) {
			b, e := t.Children(d, n)
			if d+1 == order-1 {
				lr.accum(dst, leafIDs[b:e], t.Vals[b:e])
				return
			}
			buf := bufs[d+1]
			for ch := b; ch < e; ch++ {
				clear(buf)
				children(d+1, ch, buf)
				dense.MulAddRow(dst, buf, factors[t.Perm[d+1]].Row(int(t.FIDs[d+1][ch])))
			}
		}
		for s := begin; s < end; s++ {
			children(0, s, out.Row(int(t.FIDs[0][s])))
		}
	})
}

// FlopCount returns the floating-point operation estimate for one MTTKRP of
// rank F over the tree: roughly 3·F per non-zero plus 2·F per internal node
// (used by the performance model and experiment reporting).
func FlopCount(t *csf.Tensor, rank int) int64 {
	ops := int64(3) * int64(rank) * int64(t.NNZ())
	for d := 1; d < t.Order()-1; d++ {
		ops += int64(2) * int64(rank) * int64(t.NNodes(d))
	}
	return ops
}
