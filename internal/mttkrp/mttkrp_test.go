package mttkrp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/sparse"
	"aoadmm/internal/tensor"
)

// naive computes K = X(m)·(⊙_{n≠m} Aₙ) directly from the COO definition:
// K(i_m, f) += val · Π_{n≠m} Aₙ(i_n, f).
func naive(t *tensor.COO, factors []*dense.Matrix, mode, rank int) *dense.Matrix {
	out := dense.New(t.Dims[mode], rank)
	for p := 0; p < t.NNZ(); p++ {
		row := out.Row(int(t.Inds[mode][p]))
		for f := 0; f < rank; f++ {
			prod := t.Vals[p]
			for n := 0; n < t.Order(); n++ {
				if n == mode {
					continue
				}
				prod *= factors[n].At(int(t.Inds[n][p]), f)
			}
			row[f] += prod
		}
	}
	return out
}

func randFactors(dims []int, rank int, rng *rand.Rand) []*dense.Matrix {
	fs := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		fs[m] = dense.Random(d, rank, rng)
	}
	return fs
}

func TestComputeMatchesNaive3Mode(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	coo, _, err := tensor.PlantedLowRank(tensor.GenOptions{
		Dims: []int{15, 20, 25}, NNZ: 500, Rank: 3, Seed: 51, NoiseStd: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rank := 6
	factors := randFactors(coo.Dims, rank, rng)
	for mode := 0; mode < 3; mode++ {
		tree := csf.Build(coo.Clone(), csf.DefaultPerm(3, mode))
		out := dense.New(coo.Dims[mode], rank)
		Compute(tree, factors, out, nil, Options{Threads: 1})
		want := naive(coo, factors, mode, rank)
		if d := dense.MaxAbsDiff(out, want); d > 1e-9 {
			t.Fatalf("mode %d: max diff %v", mode, d)
		}
	}
}

func TestComputeMatchesNaiveArbitraryOrder(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 2 + rng.Intn(4) // 2..5
		dims := make([]int, order)
		for m := range dims {
			dims[m] = 2 + rng.Intn(8)
		}
		coo := tensor.NewCOO(dims, 40)
		for p := 0; p < 40; p++ {
			coord := make([]int, order)
			for m := range coord {
				coord[m] = rng.Intn(dims[m])
			}
			coo.Append(coord, rng.NormFloat64())
		}
		coo.Dedup()
		rank := 1 + rng.Intn(5)
		factors := randFactors(dims, rank, rng)
		mode := rng.Intn(order)
		tree := csf.Build(coo.Clone(), csf.DefaultPerm(order, mode))
		out := dense.New(dims[mode], rank)
		Compute(tree, factors, out, nil, Options{Threads: 1 + rng.Intn(3)})
		want := naive(coo, factors, mode, rank)
		return dense.MaxAbsDiff(out, want) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	coo, err := tensor.Uniform(tensor.GenOptions{
		Dims: []int{200, 60, 60}, NNZ: 5000, Seed: 52, Skew: []float64{1.3, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	rank := 8
	factors := randFactors(coo.Dims, rank, rng)
	tree := csf.Build(coo, csf.DefaultPerm(3, 0))
	serial := dense.New(coo.Dims[0], rank)
	Compute(tree, factors, serial, nil, Options{Threads: 1})
	for _, p := range []int{2, 4, 8} {
		parl := dense.New(coo.Dims[0], rank)
		Compute(tree, factors, parl, nil, Options{Threads: p, Chunk: 3})
		if d := dense.MaxAbsDiff(serial, parl); d > 1e-12 {
			t.Fatalf("threads=%d: diff %v (owner-computes must be exact)", p, d)
		}
	}
}

func TestCSRLeafMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	coo, err := tensor.Uniform(tensor.GenOptions{Dims: []int{30, 40, 50}, NNZ: 1500, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	rank := 7
	factors := randFactors(coo.Dims, rank, rng)
	// Sparsify the leaf factor (mode 2 under DefaultPerm(3, 0) is perm[2]).
	tree := csf.Build(coo, csf.DefaultPerm(3, 0))
	leafMode := tree.Perm[2]
	lf := factors[leafMode]
	for i := range lf.Data {
		if rng.Float64() < 0.8 {
			lf.Data[i] = 0
		}
	}
	want := dense.New(coo.Dims[0], rank)
	Compute(tree, factors, want, nil, Options{Threads: 2})

	csr := sparse.FromDense(lf, 0)
	got := dense.New(coo.Dims[0], rank)
	Compute(tree, factors, got, csr, Options{Threads: 2})
	if d := dense.MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("CSR leaf diff %v", d)
	}

	hyb := sparse.FromDenseHybrid(lf, 0)
	got.Zero()
	Compute(tree, factors, got, hyb, Options{Threads: 2})
	if d := dense.MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("hybrid leaf diff %v", d)
	}
}

func TestEmptySlicesZeroed(t *testing.T) {
	// Mode-0 dim is 10 but only slices 2 and 7 hold non-zeros.
	coo := tensor.NewCOO([]int{10, 3, 3}, 2)
	coo.Append([]int{2, 1, 1}, 1.0)
	coo.Append([]int{7, 0, 2}, 2.0)
	rng := rand.New(rand.NewSource(54))
	factors := randFactors(coo.Dims, 4, rng)
	tree := csf.Build(coo, csf.DefaultPerm(3, 0))
	out := dense.Random(10, 4, rng) // pre-filled garbage must be cleared
	Compute(tree, factors, out, nil, Options{Threads: 1})
	for i := 0; i < 10; i++ {
		empty := i != 2 && i != 7
		var norm float64
		for _, v := range out.Row(i) {
			norm += math.Abs(v)
		}
		if empty && norm != 0 {
			t.Fatalf("empty slice %d has non-zero output %v", i, out.Row(i))
		}
		if !empty && norm == 0 {
			t.Fatalf("non-empty slice %d has zero output", i)
		}
	}
}

func TestComputeShapePanics(t *testing.T) {
	coo, _ := tensor.Uniform(tensor.GenOptions{Dims: []int{5, 6, 7}, NNZ: 20, Seed: 55})
	rng := rand.New(rand.NewSource(55))
	factors := randFactors(coo.Dims, 3, rng)
	tree := csf.Build(coo, csf.DefaultPerm(3, 0))
	cases := []func(){
		func() { Compute(tree, factors, dense.New(4, 3), nil, Options{}) },                             // wrong rows
		func() { Compute(tree, randFactors([]int{5, 6, 7}, 2, rng), dense.New(5, 3), nil, Options{}) }, // rank mismatch
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestDenseLeafAccumRow(t *testing.T) {
	m := dense.FromRows([][]float64{{1, 2}, {3, 4}})
	dst := []float64{10, 10}
	DenseLeaf{M: m}.AccumRow(dst, 1, 2)
	if dst[0] != 16 || dst[1] != 18 {
		t.Fatalf("AccumRow = %v", dst)
	}
}

// wrappedLeaf hides a DenseLeaf behind another concrete type, so the
// kernels take their LeafFactor interface path for it.
type wrappedLeaf struct{ DenseLeaf }

// TestDenseLeafFastPathBitIdentical pins that resolving a DenseLeaf once per
// call changes no rounding: Compute (orders 2–4, reached through the root
// mode) and ComputeMode on every other mode give bitwise-equal output
// through the DenseLeaf path and through the interface, serially and in
// parallel. Rank 13 takes the row primitives through their vector loop and
// their scalar tail.
func TestDenseLeafFastPathBitIdentical(t *testing.T) {
	const rank = 13
	rng := rand.New(rand.NewSource(61))
	for _, dims := range [][]int{{40, 30}, {30, 25, 20}, {12, 10, 9, 8}} {
		coo, err := tensor.Uniform(tensor.GenOptions{Dims: dims, NNZ: 2000, Seed: 61})
		if err != nil {
			t.Fatal(err)
		}
		order := len(dims)
		factors := randFactors(dims, rank, rng)
		for root := 0; root < order; root++ {
			tree := csf.Build(coo.Clone(), csf.DefaultPerm(order, root))
			leaf := DenseLeaf{M: factors[tree.Perm[order-1]]}
			for _, threads := range []int{1, 3} {
				for mode := 0; mode < order; mode++ {
					direct := dense.New(dims[mode], rank)
					viaIface := dense.New(dims[mode], rank)
					ComputeMode(tree, mode, factors, direct, leaf, Options{Threads: threads})
					ComputeMode(tree, mode, factors, viaIface, wrappedLeaf{leaf}, Options{Threads: threads})
					for i, v := range direct.Data {
						if math.Float64bits(v) != math.Float64bits(viaIface.Data[i]) {
							t.Fatalf("order %d root %d mode %d threads %d: element %d = %v direct, %v via the interface",
								order, root, mode, threads, i, v, viaIface.Data[i])
						}
					}
				}
			}
		}
	}
}

func TestFlopCount(t *testing.T) {
	coo, _ := tensor.Uniform(tensor.GenOptions{Dims: []int{10, 10, 10}, NNZ: 100, Seed: 56})
	tree := csf.Build(coo, csf.DefaultPerm(3, 0))
	fc := FlopCount(tree, 8)
	if fc <= 0 {
		t.Fatal("FlopCount must be positive")
	}
	if fc < int64(3*8*tree.NNZ()) {
		t.Fatal("FlopCount below nnz floor")
	}
}

func TestMatrixModeMTTKRP(t *testing.T) {
	// Order 2: K = X·B (SpMM). Verify against dense multiply.
	coo := tensor.NewCOO([]int{4, 3}, 5)
	coo.Append([]int{0, 0}, 1)
	coo.Append([]int{0, 2}, 2)
	coo.Append([]int{1, 1}, 3)
	coo.Append([]int{3, 0}, 4)
	coo.Append([]int{3, 2}, 5)
	rng := rand.New(rand.NewSource(57))
	b := dense.Random(3, 2, rng)
	x := dense.New(4, 3)
	for p := 0; p < coo.NNZ(); p++ {
		x.Set(int(coo.Inds[0][p]), int(coo.Inds[1][p]), coo.Vals[p])
	}
	want := dense.MatMul(x, b)
	tree := csf.Build(coo, csf.DefaultPerm(2, 0))
	got := dense.New(4, 2)
	Compute(tree, []*dense.Matrix{nil, b}, got, nil, Options{Threads: 1})
	if d := dense.MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("order-2 MTTKRP diff %v", d)
	}
}
