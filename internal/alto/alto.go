// Package alto implements an ALTO-style adaptive linearized tensor format
// ("Accelerating Sparse Tensor Decomposition Using Adaptive Linearized
// Representation", PAPERS.md): every non-zero's multi-mode coordinate is
// packed into one bit-interleaved linearized key, the non-zeros are sorted
// once by key, and the sorted sequence is cut into nnz-balanced intervals
// with precomputed per-interval per-mode fiber bounds.
//
// Unlike CSF (package csf), which compiles one tree per output mode and pays
// per-mode traversal asymmetry plus slice-partition load imbalance on skewed
// tensors, a single ALTO representation drives MTTKRP for every mode: the
// kernel walks the non-zeros in linearized order (contiguous memory),
// extracts each mode's index with a handful of shift/mask operations, and
// load-balances by splitting non-zeros — not slices — across workers.
package alto

import (
	"fmt"
	"math"
	"math/bits"

	"aoadmm/internal/tensor"
)

// MaxKeyBits is the widest supported linearized key. Tensors whose summed
// per-mode bit widths exceed 64 promote to a two-word (hi, lo) key; beyond
// 128 bits Build refuses the tensor.
const MaxKeyBits = 128

// DefaultBlockBits is the granularity of the bit interleaving: modes receive
// their key bits in round-robin blocks of this many bits, starting at the
// least-significant end. Larger blocks mean fewer extraction segments per
// mode (cheaper decode — Go has no pext instruction); smaller blocks mix the
// modes more finely so sorted keys cluster into tighter multi-mode blocks.
const DefaultBlockBits = 8

// Options configures Build.
type Options struct {
	// BlockBits overrides the interleaving block granularity
	// (DefaultBlockBits when <= 0).
	BlockBits int
	// Intervals overrides the number of nnz-balanced partition intervals
	// (<= 0 picks a heuristic from the non-zero count).
	Intervals int
}

// segment describes one contiguous run of a mode's index bits inside the
// linearized key: index |= ((word >> shift) & mask) << out, where word is the
// low or high key word. A mode's index is the OR over its segments.
type segment struct {
	shift uint8  // bit offset within the source word
	out   uint8  // bit offset within the decoded index
	hi    bool   // read from the high key word (128-bit keys only)
	mask  uint32 // width mask, already shifted down to the LSB
}

// Layout is the bit interleave of a linearized key: how many key bits each
// mode owns and where they sit. It is fixed by the dims and the block width
// alone, so a layout recorded as (dims, BlockBits) decodes the same keys
// whatever DefaultBlockBits later becomes.
type Layout struct {
	Dims []int
	// Bits[m] is the key width allocated to mode m: ceil(log2(Dims[m])),
	// minimum 1.
	Bits []int
	// KeyBits is the total key width; > 64 engages the two-word key path.
	KeyBits int
	// BlockBits is the interleave's block width.
	BlockBits int

	segs [][]segment // per-mode extraction plans

	// spreadLo[m][b][v] holds the low key word bits that byte b of a mode-m
	// index contributes when it holds v (spreadHi the high word's, nil for
	// one-word keys): linearizing is one table lookup per index byte.
	spreadLo, spreadHi [][][256]uint64
}

// NewLayout plans the key layout for a tensor of the given dims (blockBits
// <= 0 means DefaultBlockBits). It refuses fewer than two modes,
// non-positive dims, and keys wider than MaxKeyBits.
func NewLayout(dims []int, blockBits int) (*Layout, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("alto: tensor must have >= 2 modes, got %d", len(dims))
	}
	if blockBits <= 0 {
		blockBits = DefaultBlockBits
	}
	l := &Layout{
		Dims:      append([]int(nil), dims...),
		Bits:      make([]int, len(dims)),
		BlockBits: blockBits,
	}
	for m, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("alto: non-positive dimension %d for mode %d", d, m)
		}
		b := bits.Len(uint(d - 1))
		if b == 0 {
			b = 1 // a dim-1 mode still owns one key bit
		}
		l.Bits[m] = b
		l.KeyBits += b
	}
	if l.KeyBits > MaxKeyBits {
		return nil, fmt.Errorf("alto: tensor needs %d key bits, max %d (dims %v)", l.KeyBits, MaxKeyBits, dims)
	}
	l.segs = planSegments(l.Bits, blockBits)
	l.spreadLo = make([][][256]uint64, len(dims))
	if l.Words() == 2 {
		l.spreadHi = make([][][256]uint64, len(dims))
	}
	for m, segs := range l.segs {
		nb := (l.Bits[m] + 7) / 8
		l.spreadLo[m] = make([][256]uint64, nb)
		if l.spreadHi != nil {
			l.spreadHi[m] = make([][256]uint64, nb)
		}
		for b := 0; b < nb; b++ {
			for v := range 256 {
				c := uint64(v) << (8 * b)
				for _, s := range segs {
					piece := ((c >> s.out) & uint64(s.mask)) << s.shift
					if s.hi {
						l.spreadHi[m][b][v] |= piece
					} else {
						l.spreadLo[m][b][v] |= piece
					}
				}
			}
		}
	}
	return l, nil
}

// Words returns the key's uint64 word count: 1, or 2 when KeyBits > 64.
func (l *Layout) Words() int {
	if l.KeyBits > 64 {
		return 2
	}
	return 1
}

// Linearize packs the coordinates of columnar non-zeros (inds[m][p] is mode
// m's index of non-zero p) into keys: lo[p] gets the low key word and, for
// two-word layouts, hi[p] the high one (hi may be nil otherwise). Indices
// must already lie inside Dims.
func (l *Layout) Linearize(inds [][]int32, lo, hi []uint64) {
	spread(inds, l.spreadLo, lo)
	if hi != nil {
		spread(inds, l.spreadHi, hi)
	}
}

// spread sets each dst[p] to the OR of the table entries of every byte of
// non-zero p's indices. A pass covers two bytes of one mode's index (the
// whole index below 65536), and mode 0's first pass stores instead of ORing.
func spread(inds [][]int32, tabs [][][256]uint64, dst []uint64) {
	for m, col := range inds {
		col = col[:len(dst)]
		t0, t1 := bytePair(tabs[m], 0)
		if m == 0 {
			for p, c := range col {
				dst[p] = t0[uint8(c)] | t1[uint8(c>>8)]
			}
		} else {
			for p, c := range col {
				dst[p] |= t0[uint8(c)] | t1[uint8(c>>8)]
			}
		}
		if len(tabs[m]) > 2 {
			t2, t3 := bytePair(tabs[m], 2)
			for p, c := range col {
				dst[p] |= t2[uint8(c>>16)] | t3[uint8(c>>24)]
			}
		}
	}
}

// noSpread is the all-zero table that stands in for an index byte past a
// mode's width.
var noSpread [256]uint64

// bytePair returns the tables of index bytes b and b+1.
func bytePair(tabs [][256]uint64, b int) (*[256]uint64, *[256]uint64) {
	if b+1 < len(tabs) {
		return &tabs[b], &tabs[b+1]
	}
	return &tabs[b], &noSpread
}

// Tensor is a sparse tensor in ALTO form: linearized keys sorted ascending,
// parallel values, and the interval partition. One Tensor serves MTTKRP for
// all modes; it is immutable after Build or FromSorted.
type Tensor struct {
	Layout

	keysLo []uint64
	keysHi []uint64 // nil while KeyBits <= 64
	vals   []float64

	// parts are the interval boundaries over the sorted non-zeros:
	// interval t covers [parts[t], parts[t+1]).
	parts []int
	// bounds holds, for interval t and mode m, the inclusive index range
	// touched by the interval's non-zeros: bounds[(t*order+m)*2] is the
	// minimum, +1 the maximum. MTTKRP sizes interval-private accumulation
	// buffers from the output mode's range.
	bounds []int32
}

// Build compiles a COO tensor into ALTO form. Unlike csf.Build it returns
// errors instead of panicking: the format sits behind a fuzzed decode path,
// so hostile inputs (out-of-range indices, duplicate coordinates, tensors too
// large to linearize) must be rejected, not crash the process.
func Build(x *tensor.COO, opts Options) (*Tensor, error) {
	if x == nil {
		return nil, fmt.Errorf("alto: nil tensor")
	}
	l, err := NewLayout(x.Dims, opts.BlockBits)
	if err != nil {
		return nil, err
	}
	if x.NNZ() == 0 {
		return nil, fmt.Errorf("alto: empty tensor")
	}
	if err := x.Validate(); err != nil {
		return nil, fmt.Errorf("alto: %w", err)
	}

	nnz := x.NNZ()
	t := &Tensor{
		Layout: *l,
		keysLo: make([]uint64, nnz),
		vals:   append([]float64(nil), x.Vals...),
	}
	wide := t.KeyBits > 64
	if wide {
		t.keysHi = make([]uint64, nnz)
	}
	t.Linearize(x.Inds, t.keysLo, t.keysHi)
	var sorter KeySorter
	sorter.Sort(t.KeyBits, t.keysLo, t.keysHi, t.vals)

	// Linearization is a bijection, so duplicate coordinates are exactly
	// adjacent equal keys in the sorted order.
	for p := 1; p < nnz; p++ {
		if t.keysLo[p] == t.keysLo[p-1] && (!wide || t.keysHi[p] == t.keysHi[p-1]) {
			c := make([]int, t.Order())
			t.Coord(p, c)
			return nil, fmt.Errorf("alto: duplicate coordinate %v", c)
		}
	}

	if err := t.partition(opts.Intervals); err != nil {
		return nil, err
	}
	return t, nil
}

// FromSorted assembles a Tensor from keys already in ascending order under
// layout l, with their values, without sorting or copying them: the loader's
// half of Build, for keys sorted once when they were stored. keysHi must be
// nil for one-word layouts. The slices are owned by the Tensor afterwards.
//
// The input is untrusted, so one pass checks that keys never decrease, that
// every mode's decoded index lies inside Dims and that every value is
// finite, and records the interval bounds on the way. Equal adjacent keys —
// duplicate coordinates that were never coalesced — are kept, and MTTKRP
// sums them.
func FromSorted(l *Layout, keysLo, keysHi []uint64, vals []float64) (*Tensor, error) {
	nnz := len(vals)
	if nnz == 0 {
		return nil, fmt.Errorf("alto: empty tensor")
	}
	if len(keysLo) != nnz || (l.Words() == 2) != (keysHi != nil) || (keysHi != nil && len(keysHi) != nnz) {
		return nil, fmt.Errorf("alto: %d values with %d low and %d high key words for a %d-word layout",
			nnz, len(keysLo), len(keysHi), l.Words())
	}
	t := &Tensor{Layout: *l, keysLo: keysLo, keysHi: keysHi, vals: vals}
	if err := t.partition(0); err != nil {
		return nil, err
	}
	return t, nil
}

// planSegments assigns each mode's key bits in round-robin blocks starting at
// the least-significant end, then folds the per-mode blocks into extraction
// segments. Blocks that would straddle the 64-bit word boundary of a wide key
// are split so every segment reads from exactly one word.
func planSegments(modeBits []int, blockBits int) [][]segment {
	order := len(modeBits)
	segs := make([][]segment, order)
	remaining := append([]int(nil), modeBits...)
	done := make([]int, order) // decoded bits already placed per mode
	pos := 0                   // next free key bit
	left := 0
	for _, b := range modeBits {
		left += b
	}
	for left > 0 {
		for m := 0; m < order && left > 0; m++ {
			if remaining[m] == 0 {
				continue
			}
			w := blockBits
			if w > remaining[m] {
				w = remaining[m]
			}
			// Never let one extraction span both key words.
			if pos < 64 && pos+w > 64 {
				w = 64 - pos
			}
			s := segment{
				shift: uint8(pos % 64),
				out:   uint8(done[m]),
				hi:    pos >= 64,
				mask:  uint32(1)<<w - 1,
			}
			// Merge with the previous segment when the block landed
			// contiguously in both the key and the decoded index (happens
			// once every other mode is exhausted).
			if n := len(segs[m]); n > 0 {
				prev := &segs[m][n-1]
				pw := bits.Len32(prev.mask)
				if prev.hi == s.hi && uint8(pw)+prev.shift == s.shift && uint8(pw)+prev.out == s.out {
					prev.mask |= s.mask << pw
					remaining[m] -= w
					done[m] += w
					pos += w
					left -= w
					continue
				}
			}
			segs[m] = append(segs[m], s)
			remaining[m] -= w
			done[m] += w
			pos += w
			left -= w
		}
	}
	return segs
}

// extract decodes mode m's index from a key pair using the precomputed
// segment plan.
func extract(segs []segment, lo, hi uint64) int32 {
	var idx uint64
	for _, s := range segs {
		w := lo
		if s.hi {
			w = hi
		}
		idx |= ((w >> s.shift) & uint64(s.mask)) << s.out
	}
	return int32(idx)
}

// Coord decodes the coordinate of sorted non-zero p into dst (length Order).
func (t *Tensor) Coord(p int, dst []int) {
	lo := t.keysLo[p]
	var hi uint64
	if t.keysHi != nil {
		hi = t.keysHi[p]
	}
	for m := range dst {
		dst[m] = int(extract(t.segs[m], lo, hi))
	}
}

// partition cuts the sorted non-zeros into n near-equal intervals (heuristic
// when n <= 0) and precomputes each interval's per-mode index bounds. The
// same pass rejects what a corrupt key stream can hold: a key below its
// predecessor, an index past its dim (key bits can encode up to the next
// power of two), and a non-finite value.
func (t *Tensor) partition(n int) error {
	nnz := len(t.vals)
	if n <= 0 {
		// Enough intervals that dynamic scheduling load-balances well past
		// typical core counts, small enough that per-interval bookkeeping
		// and recombination stay negligible.
		n = nnz / 4096
		if n < 1 {
			n = 1
		}
		if n > 256 {
			n = 256
		}
	}
	if n > nnz {
		n = nnz
	}
	order := len(t.Dims)
	t.parts = make([]int, n+1)
	for i := 0; i <= n; i++ {
		t.parts[i] = i * nnz / n
	}
	t.bounds = make([]int32, n*order*2)
	for iv := 0; iv < n; iv++ {
		b, e := t.parts[iv], t.parts[iv+1]
		if err := t.checkOrder(max(b, 1), e); err != nil {
			return err
		}
		bnd := t.bounds[iv*order*2 : (iv+1)*order*2]
		for m, segs := range t.segs {
			first, last := t.indexRange(segs, b, e)
			// Indices are never negative, so the maximum alone bounds them.
			if last >= uint64(t.Dims[m]) {
				return fmt.Errorf("alto: mode %d index %d among non-zeros [%d, %d) outside [0, %d)",
					m, last, b, e, t.Dims[m])
			}
			bnd[2*m], bnd[2*m+1] = int32(first), int32(last)
		}
		for p, v := range t.vals[b:e] {
			if v-v != 0 { // NaN or ±Inf
				return fmt.Errorf("alto: non-zero %d has non-finite value %v", b+p, v)
			}
		}
	}
	return nil
}

// checkOrder reports the first non-zero in [b, e) whose key is below its
// predecessor's.
func (t *Tensor) checkOrder(b, e int) error {
	lo := t.keysLo
	if t.keysHi == nil {
		for p := b; p < e; p++ {
			if lo[p] < lo[p-1] {
				return fmt.Errorf("alto: key of non-zero %d is below its predecessor's", p)
			}
		}
		return nil
	}
	hi := t.keysHi
	for p := b; p < e; p++ {
		if hi[p] < hi[p-1] || (hi[p] == hi[p-1] && lo[p] < lo[p-1]) {
			return fmt.Errorf("alto: key of non-zero %d is below its predecessor's", p)
		}
	}
	return nil
}

// indexRange returns the smallest and largest index the extraction plan
// segs decodes from the keys of non-zeros [b, e), which must be non-empty.
func (t *Tensor) indexRange(segs []segment, b, e int) (first, last uint64) {
	first = math.MaxUint64
	if t.keysHi == nil && len(segs) <= 2 {
		// One or two segments cover every mode of up to 2·BlockBits bits;
		// holding the plan in registers keeps this the load's cheap pass.
		var s0, s1 segment
		s0 = segs[0]
		if len(segs) == 2 {
			s1 = segs[1] // else a zero mask: the term adds nothing
		}
		// Shift counts masked to 63 compile to bare shifts.
		sh0, m0, o0 := s0.shift&63, uint64(s0.mask), s0.out&63
		sh1, m1, o1 := s1.shift&63, uint64(s1.mask), s1.out&63
		for _, k := range t.keysLo[b:e] {
			idx := (k>>sh0)&m0<<o0 | (k>>sh1)&m1<<o1
			first, last = min(first, idx), max(last, idx)
		}
		return first, last
	}
	for p := b; p < e; p++ {
		idx := uint64(extract(segs, t.keysLo[p], t.hiKey(p)))
		first, last = min(first, idx), max(last, idx)
	}
	return first, last
}

// hiKey returns the high key word of non-zero p (0 for one-word keys).
func (t *Tensor) hiKey(p int) uint64 {
	if t.keysHi == nil {
		return 0
	}
	return t.keysHi[p]
}

// Order returns the number of modes.
func (t *Tensor) Order() int { return len(t.Dims) }

// NNZ returns the number of stored non-zeros.
func (t *Tensor) NNZ() int { return len(t.vals) }

// NumIntervals returns the partition's interval count.
func (t *Tensor) NumIntervals() int { return len(t.parts) - 1 }

// IntervalBounds returns interval iv's inclusive index range for mode m.
func (t *Tensor) IntervalBounds(iv, m int) (min, max int32) {
	order := len(t.Dims)
	return t.bounds[(iv*order+m)*2], t.bounds[(iv*order+m)*2+1]
}

// MemoryBytes estimates the resident size of the compiled format.
func (t *Tensor) MemoryBytes() int64 {
	n := int64(len(t.vals))
	b := n * 8 // vals
	b += int64(len(t.keysLo)) * 8
	b += int64(len(t.keysHi)) * 8
	b += int64(len(t.parts)) * 8
	b += int64(len(t.bounds)) * 4
	return b
}

// ToCOO decodes the full tensor back to coordinate form, in linearized key
// order. Build(ToCOO()) reproduces the identical Tensor; round-trip losslessness
// is pinned by FuzzAltoRoundTrip.
func (t *Tensor) ToCOO() *tensor.COO {
	nnz := t.NNZ()
	out := &tensor.COO{
		Dims: append([]int(nil), t.Dims...),
		Inds: make([][]int32, t.Order()),
		Vals: append([]float64(nil), t.vals...),
	}
	for m, segs := range t.segs {
		col := make([]int32, nnz)
		for p, lo := range t.keysLo {
			col[p] = extract(segs, lo, t.hiKey(p))
		}
		out.Inds[m] = col
	}
	return out
}

// String summarizes the compiled format.
func (t *Tensor) String() string {
	return fmt.Sprintf("ALTO{dims=%v, nnz=%d, keybits=%d, intervals=%d}",
		t.Dims, t.NNZ(), t.KeyBits, t.NumIntervals())
}

// FlopCount estimates the floating-point work of one rank-F MTTKRP over the
// format: order·F multiplies plus F adds per non-zero (the linearized kernel
// has no fiber-level reuse, trading flops for mode-agnostic contiguous
// walks).
func FlopCount(t *Tensor, rank int) int64 {
	return int64(t.Order()+1) * int64(rank) * int64(t.NNZ())
}
