package alto

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/tensor"
)

// genUniform draws a deduplicated random tensor for the parity corpus.
func genUniform(t *testing.T, dims []int, nnz int, skew []float64, seed int64) *tensor.COO {
	t.Helper()
	x, err := tensor.Uniform(tensor.GenOptions{Dims: dims, NNZ: nnz, Skew: skew, Seed: seed})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return x
}

// randFactors builds one deterministic dense factor per mode.
func randFactors(dims []int, rank int, seed int64) []*dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		f := dense.New(d, rank)
		for i := range f.Data {
			f.Data[i] = rng.Float64()*2 - 1
		}
		fs[m] = f
	}
	return fs
}

// csfOracle computes mode m's MTTKRP with the reference CSF kernel.
func csfOracle(x *tensor.COO, m int, factors []*dense.Matrix, rank int) *dense.Matrix {
	tree := csf.Build(x.Clone(), csf.DefaultPerm(x.Order(), m))
	out := dense.New(x.Dims[m], rank)
	mttkrp.Compute(tree, factors, out, nil, mttkrp.Options{Threads: 1})
	return out
}

func maxAbsDiff(a, b *dense.Matrix) float64 {
	var worst float64
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			d := math.Abs(ra[j] - rb[j])
			if s := math.Abs(ra[j]); s > 1 {
				d /= s
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestMTTKRPParityCSF pins ALTO MTTKRP to the CSF oracle within 1e-12 on
// every mode of 3- and 4-mode tensors, uniform and power-law, serial and
// parallel, across both parallel strategies (interval-bounded buffers and
// the per-thread privatization fallback).
func TestMTTKRPParityCSF(t *testing.T) {
	cases := []struct {
		name string
		dims []int
		nnz  int
		skew []float64
		opts Options
	}{
		{name: "3mode/uniform", dims: []int{60, 45, 70}, nnz: 8000},
		{name: "3mode/skewed", dims: []int{300, 250, 280}, nnz: 20000, skew: []float64{1.4, 1.3, 1.2}},
		{name: "3mode/hypersparse", dims: []int{500, 400, 450}, nnz: 15000},
		{name: "3mode/forced-intervals", dims: []int{50, 40, 45}, nnz: 12000, opts: Options{Intervals: 64}},
		{name: "4mode/uniform", dims: []int{30, 25, 20, 35}, nnz: 10000},
		{name: "4mode/skewed", dims: []int{80, 60, 70, 50}, nnz: 15000, skew: []float64{1.3, 1.2, 1.4, 1.1}},
		{name: "3mode/tiny-blocks", dims: []int{100, 90, 110}, nnz: 5000, opts: Options{BlockBits: 2}},
	}
	const rank = 9
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := genUniform(t, tc.dims, tc.nnz, tc.skew, 42)
			at, err := Build(x, tc.opts)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			factors := randFactors(tc.dims, rank, 7)
			for m := range tc.dims {
				want := csfOracle(x, m, factors, rank)
				for _, threads := range []int{1, 2, 4} {
					got := dense.New(tc.dims[m], rank)
					at.MTTKRP(m, factors, got, mttkrp.Options{Threads: threads})
					if d := maxAbsDiff(got, want); d > 1e-12 {
						t.Errorf("mode %d threads %d: max diff %g > 1e-12", m, threads, d)
					}
				}
			}
		})
	}
}

// TestMTTKRPDeterministicPerThreadCount pins the determinism contract: at a
// fixed thread count, repeated MTTKRPs are bitwise identical. The
// forced-intervals shape sends mode 0 down the privatized fallback, whose
// partial sums once depended on which worker claimed which interval.
func TestMTTKRPDeterministicPerThreadCount(t *testing.T) {
	dims := []int{50, 40, 45}
	x := genUniform(t, dims, 12000, nil, 42)
	at, err := Build(x, Options{Intervals: 64})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const rank = 9
	factors := randFactors(dims, rank, 7)
	for m := range dims {
		for _, threads := range []int{2, 4} {
			first := dense.New(dims[m], rank)
			at.MTTKRP(m, factors, first, mttkrp.Options{Threads: threads})
			for rep := 0; rep < 50; rep++ {
				again := dense.New(dims[m], rank)
				at.MTTKRP(m, factors, again, mttkrp.Options{Threads: threads})
				if d := dense.MaxAbsDiff(first, again); d != 0 {
					t.Fatalf("mode %d threads %d repeat %d: not deterministic (max diff %g)", m, threads, rep, d)
				}
			}
		}
	}
}

// TestMTTKRPParityWideKeys exercises the 128-bit key path: five modes of
// 8192 need 65 key bits. Parity is still pinned to the CSF oracle.
func TestMTTKRPParityWideKeys(t *testing.T) {
	dims := []int{8192, 8192, 8192, 8192, 8192}
	x := genUniform(t, dims, 4000, nil, 11)
	at, err := Build(x, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if at.KeyBits <= 64 || at.keysHi == nil {
		t.Fatalf("expected wide keys, got %d bits", at.KeyBits)
	}
	const rank = 5
	factors := randFactors(dims, rank, 3)
	for m := range dims {
		want := csfOracle(x, m, factors, rank)
		for _, threads := range []int{1, 3} {
			got := dense.New(dims[m], rank)
			at.MTTKRP(m, factors, got, mttkrp.Options{Threads: threads})
			if d := maxAbsDiff(got, want); d > 1e-12 {
				t.Errorf("mode %d threads %d: max diff %g > 1e-12", m, threads, d)
			}
		}
	}
}

// TestMTTKRPStridedOutput covers the serial copy-out branch used when the
// output is a row-block view with a wider stride (the OOC scratch pattern).
func TestMTTKRPStridedOutput(t *testing.T) {
	dims := []int{40, 30, 50}
	x := genUniform(t, dims, 3000, nil, 5)
	at, err := Build(x, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const rank = 4
	factors := randFactors(dims, rank, 9)
	want := csfOracle(x, 0, factors, rank)
	backing := dense.New(60, rank+3) // wider than rank: stride != cols after view
	view := backing.RowBlock(0, dims[0])
	view.Cols = rank
	at.MTTKRP(0, factors, view, mttkrp.Options{Threads: 1})
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < rank; j++ {
			if d := math.Abs(view.At(i, j) - want.At(i, j)); d > 1e-12 {
				t.Fatalf("strided out (%d,%d): diff %g", i, j, d)
			}
		}
	}
}

// TestRoundTrip pins COO → ALTO → COO losslessness on representative
// shapes, including dim-1 modes and the wide-key path.
func TestRoundTrip(t *testing.T) {
	cases := []struct {
		dims []int
		nnz  int
	}{
		{[]int{10, 10, 10}, 200},
		{[]int{1, 50, 7}, 60},
		{[]int{1000, 3, 999}, 1500},
		{[]int{8192, 8192, 8192, 8192, 8192}, 500}, // 65-bit keys
	}
	for _, tc := range cases {
		x := genUniform(t, tc.dims, tc.nnz, nil, 99)
		at, err := Build(x, Options{})
		if err != nil {
			t.Fatalf("dims %v: Build: %v", tc.dims, err)
		}
		back := at.ToCOO()
		if !sameCOO(x, back) {
			t.Errorf("dims %v: round trip lost non-zeros", tc.dims)
		}
	}
}

// sameCOO compares two tensors as coordinate→value sets (both are sorted to
// the natural order first; values must match exactly — linearization never
// touches them).
func sameCOO(a, b *tensor.COO) bool {
	if a.NNZ() != b.NNZ() || len(a.Dims) != len(b.Dims) {
		return false
	}
	as, bs := a.Clone(), b.Clone()
	perm := make([]int, len(a.Dims))
	for i := range perm {
		perm[i] = i
	}
	as.Sort(perm)
	bs.Sort(perm)
	for m := range as.Inds {
		for p := range as.Inds[m] {
			if as.Inds[m][p] != bs.Inds[m][p] {
				return false
			}
		}
	}
	for p := range as.Vals {
		if as.Vals[p] != bs.Vals[p] {
			return false
		}
	}
	return true
}

// TestBuildRejects pins the error behavior on hostile input: Build must
// return errors, never panic and never silently accept.
func TestBuildRejects(t *testing.T) {
	valid := func() *tensor.COO {
		x := tensor.NewCOO([]int{4, 4, 4}, 2)
		x.Append([]int{0, 1, 2}, 1)
		x.Append([]int{3, 2, 1}, 2)
		return x
	}
	cases := []struct {
		name string
		x    *tensor.COO
		want string
	}{
		{"nil", nil, "nil"},
		{"order-1", &tensor.COO{Dims: []int{5}, Inds: [][]int32{{1}}, Vals: []float64{1}}, ">= 2 modes"},
		{"empty", tensor.NewCOO([]int{3, 3}, 0), "empty"},
		{"bad-dim", &tensor.COO{Dims: []int{3, 0}, Inds: [][]int32{{}, {}}, Vals: nil}, "non-positive"},
		{"out-of-range", &tensor.COO{
			Dims: []int{4, 4, 4},
			Inds: [][]int32{{0}, {9}, {0}},
			Vals: []float64{1},
		}, "out of range"},
		{"negative-index", &tensor.COO{
			Dims: []int{4, 4, 4},
			Inds: [][]int32{{0}, {-1}, {0}},
			Vals: []float64{1},
		}, "out of range"},
		{"non-finite", &tensor.COO{
			Dims: []int{4, 4},
			Inds: [][]int32{{0}, {0}},
			Vals: []float64{math.NaN()},
		}, "non-finite"},
		{"duplicate", func() *tensor.COO {
			x := valid()
			x.Append([]int{0, 1, 2}, 5)
			return x
		}(), "duplicate"},
		{"too-wide", &tensor.COO{
			Dims: []int{1 << 30, 1 << 30, 1 << 30, 1 << 30, 1 << 30},
			Inds: [][]int32{{0}, {0}, {0}, {0}, {0}},
			Vals: []float64{1},
		}, "key bits"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Build(tc.x, Options{})
			if err == nil {
				t.Fatalf("Build accepted hostile input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if _, err := Build(valid(), Options{}); err != nil {
		t.Fatalf("Build rejected valid input: %v", err)
	}
}

// TestIntervalBounds checks the partition invariants the parallel kernel
// relies on: intervals tile the non-zeros and every decoded index falls
// inside its interval's precomputed per-mode range.
func TestIntervalBounds(t *testing.T) {
	x := genUniform(t, []int{64, 48, 56}, 9000, []float64{1.5, 1, 1.2}, 17)
	at, err := Build(x, Options{Intervals: 13})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if at.NumIntervals() != 13 {
		t.Fatalf("got %d intervals, want 13", at.NumIntervals())
	}
	if at.parts[0] != 0 || at.parts[len(at.parts)-1] != at.NNZ() {
		t.Fatalf("intervals do not tile [0, %d): %v", at.NNZ(), at.parts)
	}
	coord := make([]int, at.Order())
	for iv := 0; iv < at.NumIntervals(); iv++ {
		for p := at.parts[iv]; p < at.parts[iv+1]; p++ {
			at.Coord(p, coord)
			for m, c := range coord {
				lo, hi := at.IntervalBounds(iv, m)
				if int32(c) < lo || int32(c) > hi {
					t.Fatalf("interval %d mode %d: index %d outside [%d, %d]", iv, m, c, lo, hi)
				}
			}
		}
	}
}

// TestKeysSortedUnique checks the core format invariant directly.
func TestKeysSortedUnique(t *testing.T) {
	x := genUniform(t, []int{128, 96, 112}, 20000, nil, 23)
	at, err := Build(x, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for p := 1; p < at.NNZ(); p++ {
		if at.keysLo[p] <= at.keysLo[p-1] {
			t.Fatalf("keys not strictly ascending at %d", p)
		}
	}
	if at.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes not positive")
	}
	if FlopCount(at, 8) <= 0 {
		t.Fatalf("FlopCount not positive")
	}
}
