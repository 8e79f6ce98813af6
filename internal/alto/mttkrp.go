// ALTO MTTKRP: one linearized representation drives K = X(m)·(⊙_{n≠m} Aₙ)
// for every mode m. The kernel walks the sorted non-zeros contiguously,
// decodes each mode's index with precomputed shift/mask segments, and
// multiplies the remaining modes' factor rows elementwise.
//
// Parallel execution splits non-zeros — not slices — across workers: each
// partition interval accumulates into a private buffer bounded by the
// interval's precomputed output-index range, and a second pass recombines
// the buffers into the output in fixed interval order. When the bounds are
// too loose for that to pay (long uniform fibers spread every interval
// across most of the output), the kernel falls back to full-output
// privatization over one fixed group of consecutive intervals per thread,
// the same strategy as mttkrp.ComputeMode. Either way partial sums are keyed
// by work partition, never by which worker ran it, so the result is
// bitwise-reproducible across runs at a fixed thread count. It is not
// reproducible across thread counts: the serial path, the bounded path and
// each group count associate the sums differently.
package alto

import (
	"fmt"

	"aoadmm/internal/dense"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/par"
)

// MTTKRP computes out = X(mode)·(⊙_{n≠mode} Aₙ) over the compiled format.
// factors holds one dense factor per mode (the output mode's entry is
// unused); out must be Dims[mode] x F and is overwritten. Shape mismatches
// panic, mirroring mttkrp.Compute — they are programming errors, not data
// errors (hostile data is rejected by Build).
func (t *Tensor) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix, opts mttkrp.Options) {
	order := t.Order()
	rank := out.Cols
	if mode < 0 || mode >= order {
		panic(fmt.Sprintf("alto: mode %d out of range for order-%d tensor", mode, order))
	}
	if out.Rows != t.Dims[mode] {
		panic(fmt.Sprintf("alto: out has %d rows, mode %d has %d", out.Rows, mode, t.Dims[mode]))
	}
	for m, f := range factors {
		if m == mode || f == nil {
			continue
		}
		if f.Cols != rank {
			panic(fmt.Sprintf("alto: factor %d rank %d != %d", m, f.Cols, rank))
		}
		if f.Rows != t.Dims[m] {
			panic(fmt.Sprintf("alto: factor %d has %d rows, mode needs %d", m, f.Rows, t.Dims[m]))
		}
	}

	threads := par.Threads(opts.Threads)
	nIv := t.NumIntervals()
	if threads == 1 || nIv == 1 {
		out.Zero()
		if out.Stride == rank {
			t.accRange(mode, 0, t.NNZ(), factors, out.Data, 0, rank)
		} else {
			// Strided view (row block of a larger scratch matrix):
			// accumulate compactly, then copy rows out.
			buf := make([]float64, out.Rows*rank)
			t.accRange(mode, 0, t.NNZ(), factors, buf, 0, rank)
			for i := 0; i < out.Rows; i++ {
				copy(out.Row(i), buf[i*rank:(i+1)*rank])
			}
		}
		return
	}

	// Decide the parallel strategy from the precomputed bounds: total
	// interval-private buffer rows vs per-thread full-output privatization.
	bufRows := 0
	for iv := 0; iv < nIv; iv++ {
		lo, hi := t.IntervalBounds(iv, mode)
		if hi >= lo {
			bufRows += int(hi-lo) + 1
		}
	}
	if bufRows <= threads*out.Rows {
		t.mttkrpBounded(mode, factors, out, rank, threads, opts.Telem)
		return
	}
	t.mttkrpPrivatized(mode, factors, out, rank, threads, opts.Telem)
}

// mttkrpBounded runs the interval-private accumulation + bounded
// recombination path. Phase 1 claims intervals dynamically (nnz-balanced by
// construction, so imbalance only comes from cache effects); phase 2 sweeps
// output rows statically, adding every overlapping interval buffer in
// interval order.
func (t *Tensor) mttkrpBounded(mode int, factors []*dense.Matrix, out *dense.Matrix, rank, threads int, tel *par.Telemetry) {
	nIv := t.NumIntervals()
	bufs := make([][]float64, nIv)
	base := make([]int32, nIv)
	par.DynamicItemsT(tel, nIv, threads, func(tid, iv int) {
		lo, hi := t.IntervalBounds(iv, mode)
		if hi < lo {
			return
		}
		buf := make([]float64, (int(hi-lo)+1)*rank)
		t.accRange(mode, t.parts[iv], t.parts[iv+1], factors, buf, lo, rank)
		bufs[iv] = buf
		base[iv] = lo
	})

	out.Zero()
	par.Static(out.Rows, threads, func(tid, rb, re int) {
		for iv := 0; iv < nIv; iv++ {
			buf := bufs[iv]
			if buf == nil {
				continue
			}
			lo := int(base[iv])
			hi := lo + len(buf)/rank // exclusive
			b, e := rb, re
			if lo > b {
				b = lo
			}
			if hi < e {
				e = hi
			}
			for i := b; i < e; i++ {
				dense.AxpyRow(out.Row(i), 1, buf[(i-lo)*rank:])
			}
		}
	})
}

// mttkrpPrivatized splits the intervals into one fixed group of consecutive
// intervals per thread, gives each group a full private output matrix, and
// reduces them in group order — the fallback when interval bounds cover most
// of the output mode and bounded buffers would cost more than privatization.
// Intervals are nnz-balanced, so equal-count groups balance too.
func (t *Tensor) mttkrpPrivatized(mode int, factors []*dense.Matrix, out *dense.Matrix, rank, threads int, tel *par.Telemetry) {
	nIv := t.NumIntervals()
	groups := min(threads, nIv)
	priv := make([]*dense.Matrix, groups)
	par.StaticT(tel, nIv, groups, func(g, begin, end int) {
		p := dense.New(out.Rows, rank)
		for iv := begin; iv < end; iv++ {
			t.accRange(mode, t.parts[iv], t.parts[iv+1], factors, p.Data, 0, rank)
		}
		priv[g] = p
	})
	out.Zero()
	par.Static(out.Rows, threads, func(tid, rb, re int) {
		for _, p := range priv {
			for i := rb; i < re; i++ {
				dense.AxpyRow(out.Row(i), 1, p.Row(i))
			}
		}
	})
}

// accRange accumulates the contributions of sorted non-zeros [b, e) for the
// given output mode into acc, a row-major buffer of rank-length rows where
// output row i lands at acc[(i-base)*rank:].
func (t *Tensor) accRange(mode, b, e int, factors []*dense.Matrix, acc []float64, base int32, rank int) {
	if t.Order() == 3 && t.keysHi == nil {
		t.acc3Narrow(mode, b, e, factors, acc, base, rank)
		return
	}
	t.accGeneric(mode, b, e, factors, acc, base, rank)
}

// acc3Narrow is the specialized hot path: order-3 tensors with 64-bit keys.
// The segment loops are written inline (extract is too large to inline and a
// call per mode per non-zero would dominate the integer work). Non-zeros are
// decoded a batch at a time into row offsets, and one ScaledMulAddRows call
// applies the batch in order: a call per non-zero would spill the decode
// loop's state around every call.
func (t *Tensor) acc3Narrow(mode, b, e int, factors []*dense.Matrix, acc []float64, base int32, rank int) {
	n1, n2 := otherModes(mode)
	segO, seg1, seg2 := t.segs[mode], t.segs[n1], t.segs[n2]
	f1, f2 := factors[n1], factors[n2]
	keys, vals := t.keysLo, t.vals
	stride1, stride2 := f1.Stride, f2.Stride
	const batch = 128
	var off0, off1, off2 [batch]int
	for ; b < e; b += batch {
		n := min(batch, e-b)
		for q, k := range keys[b : b+n] {
			var i0, i1, i2 uint64
			for _, s := range segO {
				i0 |= ((k >> s.shift) & uint64(s.mask)) << s.out
			}
			for _, s := range seg1 {
				i1 |= ((k >> s.shift) & uint64(s.mask)) << s.out
			}
			for _, s := range seg2 {
				i2 |= ((k >> s.shift) & uint64(s.mask)) << s.out
			}
			off0[q] = (int(i0) - int(base)) * rank
			off1[q] = int(i1) * stride1
			off2[q] = int(i2) * stride2
		}
		dense.ScaledMulAddRows(rank, acc, off0[:n], vals[b:b+n], f1.Data, off1[:n], f2.Data, off2[:n])
	}
}

// accGeneric handles arbitrary order and wide (two-word) keys: decode every
// mode, then add the value times the elementwise product of the other
// modes' factor rows into the output row. The product is rounded left to
// right over the modes, the last multiply inside the row primitive.
func (t *Tensor) accGeneric(mode, b, e int, factors []*dense.Matrix, acc []float64, base int32, rank int) {
	order := t.Order()
	others := make([]int, 0, order-1)
	for m := 0; m < order; m++ {
		if m != mode {
			others = append(others, m)
		}
	}
	first, last := others[0], others[len(others)-1]
	z := make([]float64, rank)
	idx := make([]int32, order)
	wide := t.keysHi != nil
	for p := b; p < e; p++ {
		lo := t.keysLo[p]
		var hi uint64
		if wide {
			hi = t.keysHi[p]
		}
		for m := 0; m < order; m++ {
			idx[m] = extract(t.segs[m], lo, hi)
		}
		v := t.vals[p]
		dst := acc[(int(idx[mode])-int(base))*rank:]
		dst = dst[:rank]
		lastRow := factors[last].Row(int(idx[last]))
		switch len(others) {
		case 1:
			dense.AxpyRow(dst, v, lastRow)
		case 2:
			dense.ScaledMulAddRow(dst, v, factors[first].Row(int(idx[first])), lastRow)
		default:
			for q, x := range factors[first].Row(int(idx[first])) {
				z[q] = v * x
			}
			for _, m := range others[1 : len(others)-1] {
				for q, x := range factors[m].Row(int(idx[m])) {
					z[q] *= x
				}
			}
			dense.MulAddRow(dst, z, lastRow)
		}
	}
}

// otherModes returns the two non-output modes of an order-3 tensor in
// ascending order.
func otherModes(mode int) (int, int) {
	switch mode {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}
