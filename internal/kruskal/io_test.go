package kruskal

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aoadmm/internal/dense"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	k := Random([]int{6, 7, 8}, 3, rand.New(rand.NewSource(310)))
	k.Lambda = []float64{1.5, 2.5, 3.5}
	dir := filepath.Join(t.TempDir(), "factors")
	if err := k.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Order() != 3 || back.Rank() != 3 {
		t.Fatalf("shape %d/%d", back.Order(), back.Rank())
	}
	for m := range k.Factors {
		if !dense.Equal(k.Factors[m], back.Factors[m], 1e-15) {
			t.Fatalf("mode %d differs by %v", m, dense.MaxAbsDiff(k.Factors[m], back.Factors[m]))
		}
	}
	for f := range k.Lambda {
		if k.Lambda[f] != back.Lambda[f] {
			t.Fatalf("lambda %d: %v vs %v", f, back.Lambda[f], k.Lambda[f])
		}
	}
}

func TestSaveLoadWithoutLambda(t *testing.T) {
	k := Random([]int{4, 5}, 2, rand.New(rand.NewSource(311)))
	dir := t.TempDir()
	if err := k.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Lambda != nil {
		t.Fatal("unexpected lambda")
	}
	if back.Order() != 2 {
		t.Fatalf("order %d", back.Order())
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
	// Rank mismatch across modes.
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "mode0.txt"), []byte("1 2\n3 4\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "mode1.txt"), []byte("1 2 3\n"), 0o644)
	if _, err := Load(dir); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	// Corrupt lambda.
	dir2 := t.TempDir()
	os.WriteFile(filepath.Join(dir2, "mode0.txt"), []byte("1 2\n"), 0o644)
	os.WriteFile(filepath.Join(dir2, "lambda.txt"), []byte("1\n"), 0o644)
	if _, err := Load(dir2); err == nil {
		t.Fatal("lambda length mismatch accepted")
	}
}

func TestLoadRejectsNonFinite(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "mode0.txt"), []byte("1 NaN\n2 3\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "mode1.txt"), []byte("1 2\n"), 0o644)
	if _, err := Load(dir); err == nil {
		t.Fatal("NaN factor entry accepted")
	}
	dir2 := t.TempDir()
	os.WriteFile(filepath.Join(dir2, "mode0.txt"), []byte("1 2\n"), 0o644)
	os.WriteFile(filepath.Join(dir2, "lambda.txt"), []byte("1\n+Inf\n"), 0o644)
	if _, err := Load(dir2); err == nil {
		t.Fatal("Inf lambda accepted")
	}
}

func TestValidate(t *testing.T) {
	good := Random([]int{4, 5, 6}, 3, rand.New(rand.NewSource(99)))
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Tensor{
		"no factors": {},
		"nil factor": {Factors: []*dense.Matrix{nil}},
		"rank mismatch": {Factors: []*dense.Matrix{
			dense.New(3, 2), dense.New(4, 3),
		}},
		"lambda length": {
			Factors: []*dense.Matrix{dense.New(3, 2), dense.New(4, 2)},
			Lambda:  []float64{1},
		},
	}
	for name, k := range cases {
		if err := k.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSaveAtomicSwapsCompleteDirs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "model")
	a := Random([]int{5, 6}, 2, rand.New(rand.NewSource(1)))
	if err := SaveCheckpointAtomic(dir, Checkpoint{Factors: a}); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a different-shaped model: the swap must leave exactly
	// the new model, no stale mode files from the old one, and no temp or
	// .old leftovers beside it.
	b := Random([]int{5, 6, 7}, 3, rand.New(rand.NewSource(2)))
	b.Lambda = []float64{1, 2, 3}
	if err := SaveCheckpointAtomic(dir, Checkpoint{Factors: b}); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Order() != 3 || back.Rank() != 3 || len(back.Lambda) != 3 {
		t.Fatalf("loaded shape %d/%d", back.Order(), back.Rank())
	}
	entries, err := os.ReadDir(filepath.Dir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "model" {
			t.Fatalf("leftover %q beside the model dir", e.Name())
		}
	}
}

func TestReadMatrixText(t *testing.T) {
	m, err := ReadMatrixText(strings.NewReader("1 2\n\n3.5 -4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0) != 3.5 {
		t.Fatalf("parsed %v", m)
	}
	for _, bad := range []string{"", "1 2\n3\n", "a b\n"} {
		if _, err := ReadMatrixText(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}

func TestWriteMatrixTextPrecision(t *testing.T) {
	m := dense.FromRows([][]float64{{1.0 / 3.0}})
	var sb strings.Builder
	if err := WriteMatrixText(&sb, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.At(0, 0) != m.At(0, 0) {
		t.Fatalf("precision lost: %v vs %v", back.At(0, 0), m.At(0, 0))
	}
}
