// Kernel-format cost model: predicts, per (tensor, mode), whether the CSF
// tree traversal or the ALTO linearized walk computes MTTKRP faster, so the
// backend can be auto-selected without building and timing both formats.
//
// The two kernels trade flops for structure in opposite directions:
//
//   - CSF amortizes the Khatri-Rao product over fibers: ~2F flops per
//     non-zero at the leaves plus ~3F per internal tree node. On tensors
//     with long fibers (nnz >> fiber count) it approaches 2F per non-zero —
//     unbeatable. On hypersparse tensors (fiber length → 1) every non-zero
//     also pays the full per-fiber cost, ~5F, plus pointer-chasing.
//   - ALTO pays a flat ~3F flops plus a fixed integer decode per non-zero,
//     mode-independent, walking memory contiguously. It also load-balances
//     by non-zeros, so a power-law slice distribution cannot pin the
//     parallel runtime to one hot slice the way CSF's slice-owner
//     scheduling can.
//
// The model therefore needs the tensor's per-mode tree shape (node counts
// per level and the hottest slice's share), which KernelProfile measures in
// one O(order · nnz) pass — far cheaper than compiling either format.
package perfmodel

import (
	"fmt"

	"aoadmm/internal/tensor"
)

// Kernel format names: the closed set every MTTKRP entry point accepts. The
// empty name is FormatCSF. CheckKernelFormat and ResolveKernelFormat are the
// only places that interpret them.
const (
	FormatCSF  = "csf"
	FormatALTO = "alto"
	// FormatAuto picks FormatCSF or FormatALTO per tensor with
	// ChooseKernelFormat.
	FormatAuto = "auto"
)

// CheckKernelFormat returns an error naming the offender and the known set
// unless name is "", FormatCSF, FormatALTO, or FormatAuto. Formats never fall
// back silently.
func CheckKernelFormat(name string) error {
	switch name {
	case "", FormatCSF, FormatALTO, FormatAuto:
		return nil
	}
	return fmt.Errorf("unknown kernel format %q (known: %s, %s, %s)", name, FormatCSF, FormatALTO, FormatAuto)
}

// ResolveKernelFormat checks name and resolves it to the format that builds
// x: FormatCSF or FormatALTO. "" is FormatCSF; FormatAuto asks
// ChooseKernelFormat at the given rank and thread count (an empty tensor
// prices both at zero and ties to FormatCSF).
func ResolveKernelFormat(name string, x *tensor.COO, rank, threads int) (string, error) {
	if err := CheckKernelFormat(name); err != nil {
		return "", err
	}
	switch name {
	case FormatALTO:
		return FormatALTO, nil
	case FormatAuto:
		return ChooseKernelFormat(x, rank, threads), nil
	}
	return FormatCSF, nil
}

// KernelProfile captures the structural quantities the kernel cost model
// needs, measured from a COO tensor.
type KernelProfile struct {
	// Dims are the mode lengths.
	Dims []int
	// NNZ is the non-zero count.
	NNZ int64
	// Rank is the factorization rank the kernels will run at.
	Rank int
	// Threads is the worker count the kernels will run with.
	Threads int
	// Slices[m] is the number of non-empty root slices of the tree rooted
	// at mode m.
	Slices []int64
	// Nodes[m][d] is the internal node count at depth d (1-based; depth 0
	// is the root/slice level, depth order-1 the leaves) of the CSF tree
	// rooted at mode m with the default mode permutation. Exact up to depth
	// 3; deeper levels (order > 5) are conservatively taken as nnz.
	Nodes [][]int64
	// MaxSliceShare[m] is the largest single slice's fraction of the
	// non-zeros in mode m — the lower bound on CSF's parallel runtime under
	// slice-owner scheduling (one thread must process the whole slice).
	MaxSliceShare []float64
}

// AvgFiberLen returns the mean leaf-fiber length of the tree rooted at mode
// m: non-zeros per deepest internal node. 0 for order-2 tensors (no internal
// levels).
func (p *KernelProfile) AvgFiberLen(m int) float64 {
	if len(p.Nodes[m]) == 0 {
		return 0
	}
	deepest := p.Nodes[m][len(p.Nodes[m])-1]
	if deepest == 0 {
		return 0
	}
	return float64(p.NNZ) / float64(deepest)
}

// ProfileTensor measures a KernelProfile in one pass per mode: slice counts
// and hottest-slice share from a histogram, internal node counts from exact
// distinct-prefix counting under the default CSF permutation (root mode
// first, remaining modes in natural order).
func ProfileTensor(x *tensor.COO, rank, threads int) KernelProfile {
	order := x.Order()
	nnz := x.NNZ()
	p := KernelProfile{
		Dims:          append([]int(nil), x.Dims...),
		NNZ:           int64(nnz),
		Rank:          rank,
		Threads:       threads,
		Slices:        make([]int64, order),
		Nodes:         make([][]int64, order),
		MaxSliceShare: make([]float64, order),
	}
	for m := 0; m < order; m++ {
		counts := x.SliceCounts(m)
		var nonEmpty int64
		maxCount := 0
		for _, c := range counts {
			if c > 0 {
				nonEmpty++
			}
			if c > maxCount {
				maxCount = c
			}
		}
		p.Slices[m] = nonEmpty
		if nnz > 0 {
			p.MaxSliceShare[m] = float64(maxCount) / float64(nnz)
		}

		// Internal levels of the tree rooted at m: depth d groups non-zeros
		// by their first d+1 permuted coordinates. perm = [m, 0, 1, ...]
		// minus m, matching csf.DefaultPerm.
		perm := make([]int, 0, order)
		perm = append(perm, m)
		for n := 0; n < order; n++ {
			if n != m {
				perm = append(perm, n)
			}
		}
		p.Nodes[m] = make([]int64, 0, order-2)
		for d := 1; d <= order-2; d++ {
			if d > 3 {
				// Deeper prefixes are almost always unique in real sparse
				// tensors; count them as nnz rather than paying another
				// hash pass per level.
				p.Nodes[m] = append(p.Nodes[m], int64(nnz))
				continue
			}
			seen := make(map[[4]int32]struct{}, nnz)
			var key [4]int32
			for i := range key {
				key[i] = -1
			}
			for q := 0; q < nnz; q++ {
				for j := 0; j <= d; j++ {
					key[j] = x.Inds[perm[j]][q]
				}
				seen[key] = struct{}{}
			}
			p.Nodes[m] = append(p.Nodes[m], int64(len(seen)))
		}
	}
	return p
}

// KernelModel holds the per-element cost constants of the two MTTKRP
// kernels, in comparable abstract op units. The defaults are calibrated
// against the committed BENCH_kernels.json micro-benchmarks (cmd/benchdiff
// corpus); only cost *ratios* matter for format selection, so the absolute
// scale is arbitrary.
type KernelModel struct {
	// CSFLeaf is the per-non-zero leaf cost factor (× rank): one AccumRow.
	CSFLeaf float64
	// CSFNode is the per-internal-node cost factor (× rank): zero the
	// accumulation buffer, elementwise multiply by the level's factor row,
	// add into the parent.
	CSFNode float64
	// CSFSlice is the per-root-slice overhead (rank-independent): output
	// row addressing and fiber-pointer setup.
	CSFSlice float64
	// ALTONNZ is the per-non-zero cost factor (× rank): the fused
	// value × row × row elementwise product-accumulate.
	ALTONNZ float64
	// ALTOExtract is the per-non-zero per-mode integer decode cost
	// (rank-independent): a few shift/mask/or ops per segment.
	ALTOExtract float64
	// ALTORecombine is the per-output-row cost factor (× rank) of the
	// parallel bounded-buffer recombination pass; zero cost serially.
	ALTORecombine float64
}

// DefaultKernelModel returns constants calibrated on the repository's
// kernel micro-benchmarks (BenchmarkKernelMTTKRP in internal/alto).
func DefaultKernelModel() KernelModel {
	return KernelModel{
		CSFLeaf:       2.0,
		CSFNode:       3.4,
		CSFSlice:      6.0,
		ALTONNZ:       3.1,
		ALTOExtract:   2.2,
		ALTORecombine: 2.0,
	}
}

// CSFModeCost returns the modeled cost of one mode-m MTTKRP over a CSF tree
// rooted at m, in abstract op units, including the slice-owner parallel
// imbalance bound: the runtime cannot beat the hottest slice's share of the
// work on one thread.
func (k KernelModel) CSFModeCost(p *KernelProfile, m int) float64 {
	F := float64(p.Rank)
	work := k.CSFLeaf * F * float64(p.NNZ)
	for _, n := range p.Nodes[m] {
		work += k.CSFNode * F * float64(n)
	}
	work += k.CSFSlice * float64(p.Slices[m])
	t := threadsShare(p.Threads, p.MaxSliceShare[m])
	return work * t
}

// threadsShare returns the parallel-fraction multiplier for slice-owner
// scheduling: perfect division by the thread count, floored by the hottest
// slice's share (that slice is a single indivisible unit of work).
func threadsShare(threads int, maxShare float64) float64 {
	if threads < 1 {
		threads = 1
	}
	t := 1.0 / float64(threads)
	if maxShare > t {
		return maxShare
	}
	return t
}

// ALTOModeCost returns the modeled cost of one mode-m MTTKRP over the
// linearized format: flat per-non-zero flops plus integer decode, perfectly
// nnz-balanced across threads, plus the recombination pass when parallel.
func (k KernelModel) ALTOModeCost(p *KernelProfile, m int) float64 {
	F := float64(p.Rank)
	order := float64(len(p.Dims))
	work := (k.ALTONNZ*F + k.ALTOExtract*order) * float64(p.NNZ)
	threads := p.Threads
	if threads < 1 {
		threads = 1
	}
	cost := work / float64(threads)
	if threads > 1 {
		cost += k.ALTORecombine * F * float64(p.Dims[m])
	}
	return cost
}

// TotalCost sums the modeled per-mode costs of one full AO sweep for the
// named format (FormatCSF or FormatALTO).
func (k KernelModel) TotalCost(p *KernelProfile, format string) float64 {
	var total float64
	for m := range p.Dims {
		if format == FormatALTO {
			total += k.ALTOModeCost(p, m)
		} else {
			total += k.CSFModeCost(p, m)
		}
	}
	return total
}

// ChooseKernelFormat returns the format with the lower modeled full-sweep
// cost, FormatCSF on ties (the battle-tested default).
func (k KernelModel) ChooseKernelFormat(p *KernelProfile) string {
	if k.TotalCost(p, FormatALTO) < k.TotalCost(p, FormatCSF) {
		return FormatALTO
	}
	return FormatCSF
}

// ChooseKernelFormat selects CSF vs ALTO for a tensor with the default
// model — the one-call entry point behind FormatAuto.
func ChooseKernelFormat(x *tensor.COO, rank, threads int) string {
	p := ProfileTensor(x, rank, threads)
	return DefaultKernelModel().ChooseKernelFormat(&p)
}
