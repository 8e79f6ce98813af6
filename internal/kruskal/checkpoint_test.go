package kruskal

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"aoadmm/internal/dense"
)

func testCheckpoint(t *testing.T, withDuals, withMeta bool) Checkpoint {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	c := Checkpoint{Factors: Random([]int{5, 3, 4}, 2, rng)}
	if withDuals {
		for _, f := range c.Factors.Factors {
			c.Duals = append(c.Duals, dense.Random(f.Rows, f.Cols, rng))
		}
	}
	if withMeta {
		c.Meta = &CheckpointMeta{Iteration: 12, RelErr: 0.25, JobID: "j000042", Attempt: 2}
	}
	return c
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	c := testCheckpoint(t, true, true)
	if err := SaveCheckpointAtomic(dir, c); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta == nil || back.Meta.Iteration != 12 || back.Meta.RelErr != 0.25 ||
		back.Meta.JobID != "j000042" || back.Meta.Attempt != 2 {
		t.Fatalf("meta %+v", back.Meta)
	}
	if len(back.Duals) != 3 {
		t.Fatalf("duals %d", len(back.Duals))
	}
	for m, d := range back.Duals {
		want := c.Duals[m]
		for i := 0; i < d.Rows; i++ {
			for j := 0; j < d.Cols; j++ {
				if d.At(i, j) != want.At(i, j) {
					t.Fatalf("dual %d (%d,%d): %v != %v", m, i, j, d.At(i, j), want.At(i, j))
				}
			}
		}
	}
	// A checkpoint dir is also a plain model dir for factor-only readers.
	if _, err := Load(dir); err != nil {
		t.Fatalf("plain Load over checkpoint dir: %v", err)
	}
	meta, err := LoadCheckpointMeta(dir)
	if err != nil || meta.Iteration != 12 {
		t.Fatalf("meta probe: %+v %v", meta, err)
	}
}

func TestCheckpointLoadsPlainFactorDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	k := testCheckpoint(t, false, false).Factors
	if err := SaveCheckpointAtomic(dir, Checkpoint{Factors: k}); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Duals != nil || back.Meta != nil {
		t.Fatalf("plain dir loaded duals=%v meta=%v", back.Duals, back.Meta)
	}
	if _, err := LoadCheckpointMeta(dir); err == nil {
		t.Fatal("meta probe succeeded on meta-less dir")
	}
}

func TestCheckpointRejectsTornState(t *testing.T) {
	base := t.TempDir()

	// Dual shape mismatch.
	dir := filepath.Join(base, "shape")
	c := testCheckpoint(t, true, true)
	c.Duals[1] = dense.New(99, 2)
	if err := SaveCheckpointAtomic(dir, c); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(dir); err == nil {
		t.Fatal("mismatched dual accepted")
	}

	// Missing one dual file (order mismatch).
	dir2 := filepath.Join(base, "missing")
	if err := SaveCheckpointAtomic(dir2, testCheckpoint(t, true, true)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir2, "dual2.txt")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(dir2); err == nil {
		t.Fatal("truncated duals accepted")
	}

	// Corrupt meta JSON.
	dir3 := filepath.Join(base, "meta")
	if err := SaveCheckpointAtomic(dir3, testCheckpoint(t, false, true)); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir3, "checkpoint.json"), []byte("{"), 0o644)
	if _, err := LoadCheckpoint(dir3); err == nil {
		t.Fatal("corrupt meta accepted")
	}
}

func TestCheckpointAtomicOverwriteKeepsLatest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	for iter := 1; iter <= 3; iter++ {
		c := testCheckpoint(t, true, true)
		c.Meta.Iteration = iter
		if err := SaveCheckpointAtomic(dir, c); err != nil {
			t.Fatal(err)
		}
	}
	back, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.Iteration != 3 {
		t.Fatalf("iteration %d", back.Meta.Iteration)
	}
	if _, err := os.Stat(dir + ".old"); !os.IsNotExist(err) {
		t.Fatalf(".old left behind: %v", err)
	}
}

// A crash between SaveCheckpointAtomic's two renames leaves only dir.old:
// LoadCheckpoint must return that previous checkpoint.
func TestLoadCheckpointRecoversOldDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	c := testCheckpoint(t, true, true)
	c.Meta.Iteration = 7
	if err := SaveCheckpointAtomic(dir, c); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir, dir+".old"); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta == nil || back.Meta.Iteration != 7 || len(back.Duals) != len(c.Duals) {
		t.Fatalf("recovered %+v", back.Meta)
	}
	if _, err := os.Stat(dir + ".old"); !os.IsNotExist(err) {
		t.Fatalf(".old left behind: %v", err)
	}
}
