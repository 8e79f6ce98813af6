// Package tensor provides the coordinate (COO) sparse-tensor representation,
// FROSTT-style text I/O, and synthetic workload generators.
//
// COO is the interchange format: tensors are read, generated, sorted, and
// deduplicated here, then compiled into CSF trees (package csf) for the
// MTTKRP kernels.
package tensor

import (
	"fmt"
	"math"
	"math/bits"
)

// COO is a sparse tensor of arbitrary order in coordinate format.
// Inds[m][p] is the mode-m index (0-based) of the p-th non-zero and Vals[p]
// its value. Dims[m] is the length of mode m.
type COO struct {
	Dims []int
	Inds [][]int32
	Vals []float64
}

// NewCOO allocates an empty tensor with the given mode lengths and capacity
// for nnz non-zeros.
func NewCOO(dims []int, nnz int) *COO {
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in %v", dims))
		}
	}
	inds := make([][]int32, len(dims))
	for m := range inds {
		inds[m] = make([]int32, 0, nnz)
	}
	return &COO{
		Dims: append([]int(nil), dims...),
		Inds: inds,
		Vals: make([]float64, 0, nnz),
	}
}

// Order returns the number of modes.
func (t *COO) Order() int { return len(t.Dims) }

// NNZ returns the number of stored non-zeros.
func (t *COO) NNZ() int { return len(t.Vals) }

// Append adds one non-zero. The coordinate length must equal the order and
// each index must be within its mode's bounds.
func (t *COO) Append(coord []int, val float64) {
	if len(coord) != t.Order() {
		panic(fmt.Sprintf("tensor: coordinate of length %d for order-%d tensor", len(coord), t.Order()))
	}
	for m, c := range coord {
		if c < 0 || c >= t.Dims[m] {
			panic(fmt.Sprintf("tensor: index %d out of range for mode %d (dim %d)", c, m, t.Dims[m]))
		}
		t.Inds[m] = append(t.Inds[m], int32(c))
	}
	t.Vals = append(t.Vals, val)
}

// At returns the coordinate of non-zero p as a freshly allocated slice.
func (t *COO) At(p int) []int {
	c := make([]int, t.Order())
	for m := range c {
		c[m] = int(t.Inds[m][p])
	}
	return c
}

// Density returns NNZ / Π dims.
func (t *COO) Density() float64 {
	prod := 1.0
	for _, d := range t.Dims {
		prod *= float64(d)
	}
	if prod == 0 {
		return 0
	}
	return float64(t.NNZ()) / prod
}

// NormSq returns Σ v², the squared Frobenius norm of the tensor.
func (t *COO) NormSq() float64 {
	var s float64
	for _, v := range t.Vals {
		s += v * v
	}
	return s
}

// Norm returns the Frobenius norm.
func (t *COO) Norm() float64 { return math.Sqrt(t.NormSq()) }

// Clone returns a deep copy.
func (t *COO) Clone() *COO {
	c := NewCOO(t.Dims, t.NNZ())
	for m := range t.Inds {
		c.Inds[m] = append(c.Inds[m][:0], t.Inds[m]...)
	}
	c.Vals = append(c.Vals[:0], t.Vals...)
	return c
}

// maxDigitBits is the widest radix digit Sort counts in one pass: 2^16
// buckets of int32 counts (256 KiB) stay cache-resident.
const maxDigitBits = 16

// Sort orders the non-zeros lexicographically by the mode permutation perm
// (perm[0] is the most significant mode). The sort is stable: non-zeros with
// equal coordinates keep their relative order. CSF construction for a given
// root mode sorts with that mode first.
//
// It is a least-significant-digit radix sort over each mode's observed index
// range [min, max]: one counting pass per ≤16-bit digit of each mode, modes
// taken from perm's last to its first, then one gather of every index column
// through a reused buffer and an in-place cycle walk of the values into the
// final order. Time is O(nnz·digits), scratch is two
// int32 order arrays (O(nnz)) plus the digit counts, and a tensor already in
// perm order is detected in O(nnz) and left alone.
func (t *COO) Sort(perm []int) {
	if len(perm) != t.Order() {
		panic("tensor: Sort permutation length mismatch")
	}
	n := t.NNZ()
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: Sort of %d non-zeros exceeds the int32 order arrays", n))
	}
	if t.sortedBy(perm) {
		return
	}
	lo := make([]int32, len(perm))
	span := make([]uint32, len(perm))
	buckets := 0
	for k, m := range perm {
		lo[k], span[k] = indexRange(t.Inds[m])
		buckets = max(buckets, 1<<digitWidth(span[k]))
	}
	count := make([]int32, buckets)
	order := make([]int32, n) // order[i] is the old position of the i-th non-zero
	next := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	for k := len(perm) - 1; k >= 0; k-- {
		col, width := t.Inds[perm[k]], digitWidth(span[k])
		for shift := 0; span[k]>>shift != 0; shift += width {
			if countingPass(col, lo[k], uint(shift), uint32(1)<<width-1, count, order, next) {
				order, next = next, order
			}
		}
	}
	buf := next
	for m, col := range t.Inds {
		for i, p := range order {
			buf[i] = col[p]
		}
		copy(t.Inds[m], buf)
	}
	permuteInPlace(t.Vals, order)
}

// sortedBy reports whether the non-zeros are already in perm order.
func (t *COO) sortedBy(perm []int) bool {
	for p := 1; p < t.NNZ(); p++ {
		for _, m := range perm {
			a, b := t.Inds[m][p-1], t.Inds[m][p]
			if a < b {
				break
			}
			if a > b {
				return false
			}
		}
	}
	return true
}

// indexRange returns a non-empty column's minimum and its max-min span.
func indexRange(col []int32) (lo int32, span uint32) {
	lo, hi := col[0], col[0]
	for _, v := range col {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, uint32(hi - lo)
}

// digitWidth splits a span's bits into the fewest equal digits of at most
// maxDigitBits and returns their width; 0 for a constant column, which needs
// no pass.
func digitWidth(span uint32) int {
	b := bits.Len32(span)
	if b == 0 {
		return 0
	}
	digits := (b + maxDigitBits - 1) / maxDigitBits
	return (b + digits - 1) / digits
}

// countingPass stably scatters order into next by the digit
// ((col[p]-lo) >> shift) & mask of each non-zero p. It reports false, and
// leaves next untouched, when every key falls in one bucket (the pass would
// be the identity).
func countingPass(col []int32, lo int32, shift uint, mask uint32, count, order, next []int32) bool {
	count = count[:mask+1]
	clear(count)
	for _, v := range col {
		count[(uint32(v-lo)>>shift)&mask]++
	}
	sum := int32(0)
	for d, c := range count {
		if int(c) == len(col) {
			return false
		}
		count[d] = sum
		sum += c
	}
	for _, p := range order {
		d := (uint32(col[p]-lo) >> shift) & mask
		next[count[d]] = p
		count[d]++
	}
	return true
}

// permuteInPlace rearranges vals so that new position i holds old element
// order[i], following the permutation's cycles. It consumes order: every
// visited entry is overwritten with its bitwise complement.
func permuteInPlace(vals []float64, order []int32) {
	for start := range order {
		if order[start] < 0 {
			continue
		}
		saved := vals[start]
		i := start
		for {
			src := order[i]
			order[i] = ^src
			if int(src) == start {
				vals[i] = saved
				break
			}
			vals[i] = vals[src]
			i = int(src)
		}
	}
}

// Dedup sorts by the natural mode order and merges duplicate coordinates by
// summing their values. It returns the number of merged duplicates.
func (t *COO) Dedup() int {
	if t.NNZ() == 0 {
		return 0
	}
	perm := make([]int, t.Order())
	for i := range perm {
		perm[i] = i
	}
	t.Sort(perm)
	w := 0
	merged := 0
	for p := 1; p < t.NNZ(); p++ {
		same := true
		for m := range t.Inds {
			if t.Inds[m][p] != t.Inds[m][w] {
				same = false
				break
			}
		}
		if same {
			t.Vals[w] += t.Vals[p]
			merged++
			continue
		}
		w++
		for m := range t.Inds {
			t.Inds[m][w] = t.Inds[m][p]
		}
		t.Vals[w] = t.Vals[p]
	}
	n := w + 1
	for m := range t.Inds {
		t.Inds[m] = shrink(t.Inds[m][:n])
	}
	t.Vals = shrink(t.Vals[:n])
	return merged
}

// shrink copies s into right-sized storage when it uses under half of its
// capacity, so the slots of merged duplicates are not held for the tensor's
// lifetime (generators oversample, then merge about half away).
func shrink[T any](s []T) []T {
	if len(s) > cap(s)/2 {
		return s
	}
	return append([]T(nil), s...)
}

// Validate checks structural and numerical sanity: index arrays of equal
// length, indices within their modes' bounds, and finite values. Solvers
// call it on input tensors; NaN or Inf values would silently poison every
// downstream reduction.
func (t *COO) Validate() error {
	nnz := len(t.Vals)
	for m := range t.Inds {
		if len(t.Inds[m]) != nnz {
			return fmt.Errorf("tensor: mode %d has %d indices for %d values", m, len(t.Inds[m]), nnz)
		}
		dim := int32(t.Dims[m])
		for p, idx := range t.Inds[m] {
			if idx < 0 || idx >= dim {
				return fmt.Errorf("tensor: non-zero %d mode %d index %d out of range [0, %d)", p, m, idx, dim)
			}
		}
	}
	for p, v := range t.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tensor: non-zero %d has non-finite value %v", p, v)
		}
	}
	return nil
}

// SliceCounts returns, for mode m, the number of non-zeros in each slice
// (index value) of that mode. Used for skew diagnostics and workload
// characterization.
func (t *COO) SliceCounts(m int) []int {
	counts := make([]int, t.Dims[m])
	for _, i := range t.Inds[m] {
		counts[i]++
	}
	return counts
}

// String summarizes the tensor.
func (t *COO) String() string {
	return fmt.Sprintf("COO{dims=%v, nnz=%d, density=%.3g}", t.Dims, t.NNZ(), t.Density())
}
