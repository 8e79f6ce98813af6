package core

import (
	"math"
	"strings"
	"testing"

	"aoadmm/internal/dense"
	"aoadmm/internal/prox"
	"aoadmm/internal/tensor"
)

func TestAutoBlockSizeRuns(t *testing.T) {
	x := testTensor(t, 130)
	auto, err := Factorize(x, Options{
		Rank: 5, Seed: 1, MaxOuterIters: 10,
		Constraints:   []prox.Operator{prox.NonNegative{}},
		AutoBlockSize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Factorize(x, Options{
		Rank: 5, Seed: 1, MaxOuterIters: 10,
		Constraints: []prox.Operator{prox.NonNegative{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Auto block sizing changes scheduling, not the math materially: the
	// two runs must land at comparable errors.
	if math.Abs(auto.RelErr-fixed.RelErr) > 0.05 {
		t.Fatalf("auto %v vs fixed %v diverged", auto.RelErr, fixed.RelErr)
	}
}

// TestStructAutoMatchesDense runs StructAuto on a planted l1 problem whose
// factors go sparse: the leaf cost model must compress some MTTKRP calls,
// and since a compressed leaf changes the representation and never the
// values, the fit must match the uncompressed StructDense run. The model,
// not the density threshold, makes the choice.
func TestStructAutoMatchesDense(t *testing.T) {
	x, _, err := tensor.PlantedLowRank(tensor.GenOptions{
		Dims: []int{50, 55, 60}, NNZ: 5000, Rank: 3, Seed: 131,
		FactorDensity: 0.2, NoiseStd: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		// The model only prices compression above DENSE's per-access
		// latency once the rank is a few dozen.
		Rank: 32, Seed: 1, MaxOuterIters: 10, Threads: 1,
		Constraints:     []prox.Operator{prox.NonNegL1{Lambda: 0.3}},
		ExploitSparsity: true,
		Structure:       StructDense,
	}
	fixed, err := Factorize(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.SparseMTTKRPs != 0 {
		t.Fatalf("StructDense ran %d sparse MTTKRPs", fixed.SparseMTTKRPs)
	}
	opts.Structure = StructAuto
	auto, err := Factorize(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if auto.SparseMTTKRPs == 0 {
		t.Fatal("StructAuto never compressed a leaf factor")
	}
	if d := math.Abs(auto.RelErr - fixed.RelErr); d > 1e-12 {
		t.Fatalf("StructAuto relerr %v vs StructDense %v (diff %g)", auto.RelErr, fixed.RelErr, d)
	}

	// At rank 6 the model prices CSR's per-access latency above streaming a
	// dense row, so StructAuto must keep the leaves dense even where the
	// density threshold alone compresses them.
	opts.Rank = 6
	for _, st := range []Structure{StructCSR, StructAuto} {
		opts.Structure = st
		r, err := Factorize(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		if compressed := r.SparseMTTKRPs > 0; compressed != (st == StructCSR) {
			t.Fatalf("%v at rank 6 ran %d sparse MTTKRPs", st, r.SparseMTTKRPs)
		}
	}
}

func TestParseSpec(t *testing.T) {
	for _, c := range []struct {
		variant, structure string
		v                  Variant
		s                  Structure
	}{
		{"", "", Blocked, StructCSR},
		{"blocked", "csr", Blocked, StructCSR},
		{"base", "dense", Baseline, StructDense},
		{"baseline", "hybrid", Baseline, StructHybrid},
		{"blocked", "csr-h", Blocked, StructHybrid},
		{"blocked", "auto", Blocked, StructAuto},
	} {
		v, s, err := ParseSpec(c.variant, c.structure)
		if err != nil || v != c.v || s != c.s {
			t.Errorf("ParseSpec(%q, %q) = %v, %v, %v; want %v, %v", c.variant, c.structure, v, s, err, c.v, c.s)
		}
	}
	for _, c := range [][3]string{{"blokced", "csr", "blokced"}, {"blocked", "sparse", "sparse"}} {
		if _, _, err := ParseSpec(c[0], c[1]); err == nil || !strings.Contains(err.Error(), c[2]) {
			t.Errorf("ParseSpec(%q, %q) err = %v, want one naming %q", c[0], c[1], err, c[2])
		}
	}
}

func TestDenseColumnShare(t *testing.T) {
	// 10x4 matrix: column 0 fully dense (10 nnz), column 1 has 2, others 0.
	// Mean column count = 3; only column 0 exceeds it => share = 10/12.
	f := dense.New(10, 4)
	for i := 0; i < 10; i++ {
		f.Set(i, 0, 1)
	}
	f.Set(0, 1, 1)
	f.Set(1, 1, 1)
	got := denseColumnShare(f)
	want := 10.0 / 12.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("denseColumnShare = %v, want %v", got, want)
	}
	if denseColumnShare(dense.New(5, 3)) != 0 {
		t.Fatal("empty matrix share must be 0")
	}
}

func TestAdaptiveRhoOption(t *testing.T) {
	x := testTensor(t, 493)
	fixed, err := Factorize(x, Options{
		Rank: 4, Seed: 1, MaxOuterIters: 10,
		Constraints: []prox.Operator{prox.NonNegative{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Factorize(x, Options{
		Rank: 4, Seed: 1, MaxOuterIters: 10,
		Constraints: []prox.Operator{prox.NonNegative{}},
		AdaptiveRho: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fixed.RelErr-adaptive.RelErr) > 0.05 {
		t.Fatalf("adaptive rho diverged: %v vs %v", adaptive.RelErr, fixed.RelErr)
	}
}
