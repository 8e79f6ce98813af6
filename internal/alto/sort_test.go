package alto

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"aoadmm/internal/dense"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/tensor"
)

// buildBySortSlice is Build as it was before the radix sort: linearize every
// coordinate, sort a permutation with sort.Slice, gather. Kept here as the
// reference the radix build must reproduce bit for bit.
func buildBySortSlice(t *testing.T, x *tensor.COO, opts Options) *Tensor {
	t.Helper()
	l, err := NewLayout(x.Dims, opts.BlockBits)
	if err != nil {
		t.Fatal(err)
	}
	nnz := x.NNZ()
	wide := l.KeyBits > 64
	keyLo, keyHi := make([]uint64, nnz), make([]uint64, nnz)
	for p := 0; p < nnz; p++ {
		for m := range x.Dims {
			c := uint64(x.Inds[m][p])
			for _, s := range l.segs[m] {
				piece := (c >> s.out) & uint64(s.mask)
				if s.hi {
					keyHi[p] |= piece << s.shift
				} else {
					keyLo[p] |= piece << s.shift
				}
			}
		}
	}
	perm := make([]int, nnz)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		pa, pb := perm[a], perm[b]
		if keyHi[pa] != keyHi[pb] {
			return keyHi[pa] < keyHi[pb]
		}
		return keyLo[pa] < keyLo[pb]
	})
	ref := &Tensor{Layout: *l, keysLo: make([]uint64, nnz), vals: make([]float64, nnz)}
	if wide {
		ref.keysHi = make([]uint64, nnz)
	}
	for i, p := range perm {
		ref.keysLo[i] = keyLo[p]
		ref.vals[i] = x.Vals[p]
		if wide {
			ref.keysHi[i] = keyHi[p]
		}
	}
	if err := ref.partition(opts.Intervals); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestBuildRadixMatchesSortSlice holds the radix-sorted build bitwise equal
// to the sort.Slice build on 64- and 128-bit keys: keys, values, interval
// cuts and bounds.
func TestBuildRadixMatchesSortSlice(t *testing.T) {
	for _, tc := range []struct {
		name string
		dims []int
		nnz  int
	}{
		{"narrow3", []int{46, 2000, 2000}, 20000},
		{"narrow4", []int{300, 17, 90, 1000}, 9000},
		{"dim1", []int{1, 500, 3}, 1200},
		{"wide5", []int{8192, 8192, 8192, 8192, 8192}, 6000},
		{"wide3", []int{1 << 30, 1 << 30, 1 << 20}, 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := genUniform(t, tc.dims, tc.nnz, nil, 41)
			for _, opts := range []Options{{}, {BlockBits: 3, Intervals: 7}} {
				got, err := Build(x, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := buildBySortSlice(t, x, opts)
				if (got.keysHi == nil) != (want.keysHi == nil) {
					t.Fatalf("key words differ: %v vs %v", got.keysHi == nil, want.keysHi == nil)
				}
				for p := range want.vals {
					if got.keysLo[p] != want.keysLo[p] || got.hiKey(p) != want.hiKey(p) ||
						math.Float64bits(got.vals[p]) != math.Float64bits(want.vals[p]) {
						t.Fatalf("non-zero %d differs", p)
					}
				}
				if !equalInts(got.parts, want.parts) {
					t.Fatalf("parts %v, want %v", got.parts, want.parts)
				}
				for i := range want.bounds {
					if got.bounds[i] != want.bounds[i] {
						t.Fatalf("bounds[%d] = %d, want %d", i, got.bounds[i], want.bounds[i])
					}
				}
			}
		})
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBuildRejectsDuplicateAfterRadix keeps Build's duplicate error.
func TestBuildRejectsDuplicateAfterRadix(t *testing.T) {
	x := genUniform(t, []int{30, 40, 50}, 2000, nil, 3)
	for m := range x.Inds {
		x.Inds[m] = append(x.Inds[m], x.Inds[m][17])
	}
	x.Vals = append(x.Vals, 1)
	_, err := Build(x, Options{})
	if err == nil || !strings.Contains(err.Error(), "alto: duplicate coordinate") {
		t.Fatalf("duplicate accepted or wrong error: %v", err)
	}
}

// TestKeySorterStable: the output is a permutation of the input in key
// order, with equal keys in their input order, on one- and two-word keys,
// at sizes that pick narrow and the widest digits; the buffers are reused
// across calls.
func TestKeySorterStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s KeySorter
	for _, n := range []int{5000, 1 << 18} {
		for _, keyBits := range []int{12, 64, 100} {
			lo, vals := make([]uint64, n), make([]float64, n)
			var hi []uint64
			if keyBits > 64 {
				hi = make([]uint64, n)
			}
			for p := range lo {
				if p > 0 && p%3 == 0 { // many duplicates
					q := rng.Intn(p)
					lo[p] = lo[q]
					if hi != nil {
						hi[p] = hi[q]
					}
				} else {
					lo[p] = rng.Uint64() >> (64 - min(keyBits, 64))
					if hi != nil {
						hi[p] = rng.Uint64() >> (128 - keyBits)
					}
				}
				vals[p] = float64(p) // input position
			}
			s.Sort(keyBits, lo, hi, vals)
			seen := make([]bool, n)
			for p := 0; p < n; p++ {
				seen[int(vals[p])] = true
				if p == 0 {
					continue
				}
				ph, h := uint64(0), uint64(0)
				if hi != nil {
					ph, h = hi[p-1], hi[p]
				}
				switch {
				case h < ph || (h == ph && lo[p] < lo[p-1]):
					t.Fatalf("n %d keyBits %d: keys descend at %d", n, keyBits, p)
				case h == ph && lo[p] == lo[p-1] && vals[p] < vals[p-1]:
					t.Fatalf("n %d keyBits %d: equal keys reordered at %d", n, keyBits, p)
				}
			}
			for p, ok := range seen {
				if !ok {
					t.Fatalf("n %d keyBits %d: input %d lost", n, keyBits, p)
				}
			}
		}
	}
}

// TestFromSortedMatchesBuild: keys taken from a Build reassemble into the
// same tensor and the same MTTKRP, and duplicate keys are summed.
func TestFromSortedMatchesBuild(t *testing.T) {
	dims := []int{40, 30, 50}
	x := genUniform(t, dims, 3000, nil, 9)
	at, err := Build(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo := append([]uint64(nil), at.keysLo...)
	vals := append([]float64(nil), at.vals...)
	ft, err := FromSorted(&at.Layout, lo, nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(ft.parts, at.parts) {
		t.Fatalf("parts differ")
	}
	const rank = 4
	factors := randFactors(dims, rank, 2)
	for m := range dims {
		want, got := dense.New(dims[m], rank), dense.New(dims[m], rank)
		at.MTTKRP(m, factors, want, mttkrp.Options{Threads: 1})
		ft.MTTKRP(m, factors, got, mttkrp.Options{Threads: 1})
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("mode %d: MTTKRP differs at %d", m, i)
			}
		}
	}

	// A duplicated key is kept and summed: doubling every value equals
	// repeating every non-zero.
	dupLo := make([]uint64, 0, 2*len(lo))
	dupVals := make([]float64, 0, 2*len(lo))
	for p := range lo {
		dupLo = append(dupLo, lo[p], lo[p])
		dupVals = append(dupVals, vals[p], vals[p])
	}
	dt, err := FromSorted(&at.Layout, dupLo, nil, dupVals)
	if err != nil {
		t.Fatal(err)
	}
	for m := range dims {
		want, got := dense.New(dims[m], rank), dense.New(dims[m], rank)
		at.MTTKRP(m, factors, want, mttkrp.Options{Threads: 1})
		dt.MTTKRP(m, factors, got, mttkrp.Options{Threads: 1})
		if d := maxAbsDiff(got, scaled(want, 2)); d > 1e-12 {
			t.Fatalf("mode %d: duplicates not summed (diff %g)", m, d)
		}
	}
}

func scaled(a *dense.Matrix, s float64) *dense.Matrix {
	b := dense.New(a.Rows, a.Cols)
	for i, v := range a.Data {
		b.Data[i] = s * v
	}
	return b
}

// TestFromSortedRejectsCorruption: each defect an untrusted key stream can
// carry is an error, never a panic.
func TestFromSortedRejectsCorruption(t *testing.T) {
	l, err := NewLayout([]int{10, 6, 5}, 0) // no dim is a power of two
	if err != nil {
		t.Fatal(err)
	}
	key := func(i, j, k int32) uint64 {
		lo := make([]uint64, 1)
		l.Linearize([][]int32{{i}, {j}, {k}}, lo, nil)
		return lo[0]
	}
	ok := []uint64{key(0, 0, 0), key(1, 2, 3), key(9, 5, 4)}
	sort.Slice(ok, func(a, b int) bool { return ok[a] < ok[b] })
	for _, tc := range []struct {
		name string
		keys []uint64
		vals []float64
		want string
	}{
		{"decreasing", []uint64{ok[2], ok[0]}, []float64{1, 2}, "below its predecessor"},
		{"index-past-dim", []uint64{ok[0], key(9, 5, 4) | 0xf}, []float64{1, 2}, "outside"},
		{"nan", ok, []float64{1, math.NaN(), 2}, "non-finite"},
		{"inf", ok, []float64{1, 2, math.Inf(-1)}, "non-finite"},
		{"short-keys", ok[:2], []float64{1, 2, 3}, "key words"},
		{"empty", nil, nil, "empty"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FromSorted(l, tc.keys, nil, tc.vals)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
	if _, err := FromSorted(l, ok, nil, []float64{1, 2, 3}); err != nil {
		t.Fatalf("valid keys rejected: %v", err)
	}
}

// TestAddMTTKRPAccumulates: AddMTTKRP adds into what out already holds, on
// the serial, bounded and privatized paths and on a strided view.
func TestAddMTTKRPAccumulates(t *testing.T) {
	dims := []int{64, 48, 56}
	x := genUniform(t, dims, 9000, []float64{1.5, 1, 1.2}, 17)
	at, err := Build(x, Options{Intervals: 9})
	if err != nil {
		t.Fatal(err)
	}
	const rank = 6
	factors := randFactors(dims, rank, 4)
	for m := range dims {
		for _, threads := range []int{1, 3} {
			k := dense.New(dims[m], rank)
			at.MTTKRP(m, factors, k, mttkrp.Options{Threads: threads})
			base := dense.New(dims[m]+5, rank+3)
			for i := range base.Data {
				base.Data[i] = float64(i%7) - 3
			}
			view := base.RowBlock(2, 2+dims[m])
			view.Cols = rank
			before := view.Clone()
			at.AddMTTKRP(m, factors, view, mttkrp.Options{Threads: threads})
			for i := 0; i < dims[m]; i++ {
				for j := 0; j < rank; j++ {
					if d := math.Abs(view.At(i, j) - before.At(i, j) - k.At(i, j)); d > 1e-9 {
						t.Fatalf("mode %d threads %d (%d,%d): off by %g", m, threads, i, j, d)
					}
				}
			}
		}
	}
}
