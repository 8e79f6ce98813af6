package aoadmm

import (
	"math"
	"path/filepath"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	x, err := Dataset("amazon", ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Factorize(x, Options{
		Rank:          8,
		Constraints:   []Constraint{NonNegative()},
		Seed:          1,
		MaxOuterIters: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelErr <= 0 || res.RelErr >= 1 {
		t.Fatalf("rel err %v out of range", res.RelErr)
	}
	if res.Factors.Rank() != 8 || res.Factors.Order() != 3 {
		t.Fatalf("factors %dx%d", res.Factors.Order(), res.Factors.Rank())
	}
}

func TestPublicConstraintConstructors(t *testing.T) {
	specs := map[string]Constraint{
		"nonneg":         NonNegative(),
		"l1(0.1)":        L1(0.1),
		"nonneg+l1(0.2)": NonNegativeL1(0.2),
		"l2(3)":          L2(3),
		"simplex(1)":     Simplex(0),
		"box[0,1]":       Box(0, 1),
		"none":           Unconstrained(),
	}
	for want, c := range specs {
		if got := c.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
	c, err := ParseConstraint("nonneg+l1:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "nonneg+l1(0.5)" {
		t.Fatalf("parsed %q", c.Name())
	}
	if _, err := ParseConstraint("nope"); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestPublicTensorRoundTrip(t *testing.T) {
	x := NewTensor([]int{3, 4, 5}, 2)
	x.Append([]int{0, 1, 2}, 1.5)
	x.Append([]int{2, 3, 4}, -2)
	path := filepath.Join(t.TempDir(), "t.tns")
	if err := SaveTensor(path, x); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTensor(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != 2 {
		t.Fatalf("nnz %d", back.NNZ())
	}
}

func TestPublicGenerators(t *testing.T) {
	u, err := GenerateUniform(GenOptions{Dims: []int{10, 10}, NNZ: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if u.NNZ() == 0 {
		t.Fatal("empty uniform tensor")
	}
	p, planted, err := GeneratePlanted(GenOptions{Dims: []int{10, 10, 10}, NNZ: 100, Rank: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.NNZ() == 0 || len(planted) != 3 {
		t.Fatal("bad planted tensor")
	}
}

func TestPublicDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 4 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if _, err := Dataset(n, ScaleSmall); err != nil {
			t.Fatalf("Dataset(%q): %v", n, err)
		}
	}
}

func TestPublicALS(t *testing.T) {
	x, err := Dataset("patents", ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Factorize(x, Options{Variant: ALS, Rank: 6, Seed: 5, MaxOuterIters: 15})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.RelErr) || res.RelErr >= 1 {
		t.Fatalf("ALS rel err %v", res.RelErr)
	}
}

func TestPublicVariantsAndStructures(t *testing.T) {
	x, err := Dataset("reddit", ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{Baseline, Blocked} {
		for _, s := range []Structure{StructDense, StructCSR, StructHybrid} {
			res, err := Factorize(x, Options{
				Rank: 4, Variant: v, Structure: s,
				ExploitSparsity: s != StructDense,
				Constraints:     []Constraint{NonNegativeL1(0.1)},
				Seed:            6, MaxOuterIters: 5,
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", v, s, err)
			}
			if res.OuterIters == 0 {
				t.Fatalf("%v/%v: no iterations", v, s)
			}
		}
	}
}
