package kruskal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/tensor"
)

func TestNewAndShape(t *testing.T) {
	k := New([]int{4, 5, 6}, 3)
	if k.Order() != 3 || k.Rank() != 3 {
		t.Fatalf("order=%d rank=%d", k.Order(), k.Rank())
	}
	dims := k.Dims()
	if dims[0] != 4 || dims[1] != 5 || dims[2] != 6 {
		t.Fatalf("dims = %v", dims)
	}
	if (&Tensor{}).Rank() != 0 {
		t.Fatal("empty tensor rank")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random([]int{3, 4}, 2, rand.New(rand.NewSource(61)))
	b := Random([]int{3, 4}, 2, rand.New(rand.NewSource(61)))
	for m := range a.Factors {
		if !dense.Equal(a.Factors[m], b.Factors[m], 0) {
			t.Fatal("Random not deterministic")
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	k := Random([]int{3, 4}, 2, rand.New(rand.NewSource(62)))
	k.Lambda = []float64{1, 2}
	c := k.Clone()
	c.Factors[0].Set(0, 0, 99)
	c.Lambda[0] = 99
	if k.Factors[0].At(0, 0) == 99 || k.Lambda[0] == 99 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestAtEvaluatesModel(t *testing.T) {
	// Rank-1: A=(2), B=(3), C=(4) => value at (0,0,0) is 24.
	k := New([]int{1, 1, 1}, 1)
	k.Factors[0].Set(0, 0, 2)
	k.Factors[1].Set(0, 0, 3)
	k.Factors[2].Set(0, 0, 4)
	if v := k.At([]int{0, 0, 0}); v != 24 {
		t.Fatalf("At = %v", v)
	}
	k.Lambda = []float64{0.5}
	if v := k.At([]int{0, 0, 0}); v != 12 {
		t.Fatalf("At with lambda = %v", v)
	}
}

func TestNormSqMatchesExplicit(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{2 + rng.Intn(5), 2 + rng.Intn(5), 2 + rng.Intn(5)}
		rank := 1 + rng.Intn(3)
		k := Random(dims, rank, rng)
		// Explicit: evaluate the model at every coordinate and sum squares.
		var want float64
		coord := make([]int, 3)
		for i := 0; i < dims[0]; i++ {
			for j := 0; j < dims[1]; j++ {
				for l := 0; l < dims[2]; l++ {
					coord[0], coord[1], coord[2] = i, j, l
					v := k.At(coord)
					want += v * v
				}
			}
		}
		got := k.NormSq(1)
		return math.Abs(got-want) < 1e-8*(1+want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNormSqFromGramsMatchesNormSq(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	k := Random([]int{6, 7, 8}, 4, rng)
	grams := make([]*dense.Matrix, 3)
	for m, f := range k.Factors {
		grams[m] = dense.Gram(f, 1)
	}
	a := NormSqFromGrams(grams)
	b := k.NormSq(2)
	if math.Abs(a-b) > 1e-9*(1+b) {
		t.Fatalf("%v != %v", a, b)
	}
}

func TestRelErrExactRecoveryIsZero(t *testing.T) {
	// Build a tensor that IS a Kruskal model evaluated on all coordinates of
	// a small dense grid; relative error of the same model must be ~0.
	rng := rand.New(rand.NewSource(64))
	dims := []int{4, 5, 6}
	k := Random(dims, 2, rng)
	coo := tensor.NewCOO(dims, dims[0]*dims[1]*dims[2])
	coord := make([]int, 3)
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for l := 0; l < dims[2]; l++ {
				coord[0], coord[1], coord[2] = i, j, l
				coo.Append(coord, k.At(coord))
			}
		}
	}
	tree := csf.Build(coo.Clone(), csf.DefaultPerm(3, 2))
	kmat := dense.New(dims[2], 2)
	mttkrp.Compute(tree, k.Factors, kmat, nil, mttkrp.Options{Threads: 1})
	inner := InnerWithMTTKRP(kmat, k.Factors[2])
	relerr := RelErr(coo.NormSq(), inner, k.NormSq(1))
	if relerr > 1e-7 {
		t.Fatalf("exact model rel err = %v", relerr)
	}
}

func TestRelErrZeroModel(t *testing.T) {
	// M = 0: rel err must be 1.
	if e := RelErr(4.0, 0, 0); e != 1 {
		t.Fatalf("RelErr = %v, want 1", e)
	}
	// Degenerate X.
	if e := RelErr(0, 0, 0); e != 0 {
		t.Fatalf("RelErr(0,...) = %v", e)
	}
	// Cancellation clamp.
	if e := RelErr(1, 1, 1+1e-16); math.IsNaN(e) {
		t.Fatal("RelErr must clamp negative residual")
	}
}

func TestNormalizePreservesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	k := Random([]int{4, 4, 4}, 3, rng)
	before := make([]float64, 0, 64)
	coord := make([]int, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for l := 0; l < 4; l++ {
				coord[0], coord[1], coord[2] = i, j, l
				before = append(before, k.At(coord))
			}
		}
	}
	k.Normalize()
	idx := 0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for l := 0; l < 4; l++ {
				coord[0], coord[1], coord[2] = i, j, l
				if math.Abs(k.At(coord)-before[idx]) > 1e-9 {
					t.Fatalf("Normalize changed model at %v: %v vs %v", coord, k.At(coord), before[idx])
				}
				idx++
			}
		}
	}
	// Columns unit norm.
	for m, f := range k.Factors {
		for c := 0; c < f.Cols; c++ {
			var s float64
			for r := 0; r < f.Rows; r++ {
				s += f.At(r, c) * f.At(r, c)
			}
			if math.Abs(math.Sqrt(s)-1) > 1e-9 {
				t.Fatalf("factor %d column %d norm %v", m, c, math.Sqrt(s))
			}
		}
	}
}

func TestAtPanicsOnBadCoord(t *testing.T) {
	k := New([]int{2, 2}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.At([]int{0})
}

func TestInitMatchesDataNorm(t *testing.T) {
	dims := []int{7, 5, 6}
	const xNormSq = 1234.5
	a := Init(dims, 3, 9, xNormSq, 1)
	if got := a.NormSq(1); math.Abs(got-xNormSq) > 1e-9*xNormSq {
		t.Fatalf("‖M₀‖² = %v, want %v", got, xNormSq)
	}
	b := Init(dims, 3, 9, xNormSq, 1)
	for m := range dims {
		if d := dense.MaxAbsDiff(a.Factors[m], b.Factors[m]); d != 0 {
			t.Fatalf("mode %d differs between equal seeds by %g", m, d)
		}
	}
	raw := Init(dims, 3, 9, 0, 1)
	want := Random(dims, 3, rand.New(rand.NewSource(9)))
	if d := dense.MaxAbsDiff(raw.Factors[0], want.Factors[0]); d != 0 {
		t.Fatalf("zero data norm must skip the rescale (diff %g)", d)
	}
}
