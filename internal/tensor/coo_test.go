package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCOO() *COO {
	t := NewCOO([]int{3, 4, 5}, 4)
	t.Append([]int{2, 3, 4}, 1.5)
	t.Append([]int{0, 0, 0}, 2.0)
	t.Append([]int{1, 2, 3}, -0.5)
	t.Append([]int{0, 0, 1}, 3.0)
	return t
}

func TestNewCOOValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive dim")
		}
	}()
	NewCOO([]int{3, 0}, 1)
}

func TestAppendAndAt(t *testing.T) {
	c := smallCOO()
	if c.Order() != 3 || c.NNZ() != 4 {
		t.Fatalf("order=%d nnz=%d", c.Order(), c.NNZ())
	}
	at := c.At(0)
	if at[0] != 2 || at[1] != 3 || at[2] != 4 {
		t.Fatalf("At(0) = %v", at)
	}
}

func TestAppendBoundsPanics(t *testing.T) {
	c := NewCOO([]int{2, 2}, 1)
	for _, coord := range [][]int{{2, 0}, {-1, 0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for coord %v", coord)
				}
			}()
			c.Append(coord, 1)
		}()
	}
}

func TestDensityNormClone(t *testing.T) {
	c := smallCOO()
	if d := c.Density(); math.Abs(d-4.0/60) > 1e-12 {
		t.Fatalf("Density = %v", d)
	}
	wantSq := 1.5*1.5 + 4 + 0.25 + 9
	if math.Abs(c.NormSq()-wantSq) > 1e-12 {
		t.Fatalf("NormSq = %v", c.NormSq())
	}
	if math.Abs(c.Norm()-math.Sqrt(wantSq)) > 1e-12 {
		t.Fatalf("Norm = %v", c.Norm())
	}
	cl := c.Clone()
	cl.Vals[0] = 100
	cl.Inds[0][0] = 0
	if c.Vals[0] == 100 || c.Inds[0][0] == 0 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestSortLexicographic(t *testing.T) {
	c := smallCOO()
	c.Sort([]int{0, 1, 2})
	for p := 1; p < c.NNZ(); p++ {
		if c.less([]int{0, 1, 2}, p, p-1) {
			t.Fatalf("not sorted at %d", p)
		}
	}
	// First should be (0,0,0), last (2,3,4).
	if at := c.At(0); at[0] != 0 || at[1] != 0 || at[2] != 0 {
		t.Fatalf("first after sort = %v", at)
	}
	if at := c.At(3); at[0] != 2 {
		t.Fatalf("last after sort = %v", at)
	}
}

func TestSortAlternatePermutation(t *testing.T) {
	c := smallCOO()
	perm := []int{2, 0, 1} // mode 2 most significant
	c.Sort(perm)
	for p := 1; p < c.NNZ(); p++ {
		if c.less(perm, p, p-1) {
			t.Fatalf("not sorted under perm at %d", p)
		}
	}
}

func TestSortPreservesMultiset(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{1 + rng.Intn(5), 1 + rng.Intn(5), 1 + rng.Intn(5)}
		c := NewCOO(dims, 20)
		for p := 0; p < 20; p++ {
			c.Append([]int{rng.Intn(dims[0]), rng.Intn(dims[1]), rng.Intn(dims[2])}, rng.NormFloat64())
		}
		sumBefore := 0.0
		for _, v := range c.Vals {
			sumBefore += v
		}
		c.Sort([]int{1, 2, 0})
		sumAfter := 0.0
		for _, v := range c.Vals {
			sumAfter += v
		}
		return c.NNZ() == 20 && math.Abs(sumBefore-sumAfter) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDedupMergesDuplicates(t *testing.T) {
	c := NewCOO([]int{2, 2}, 5)
	c.Append([]int{0, 1}, 1)
	c.Append([]int{1, 1}, 2)
	c.Append([]int{0, 1}, 3)
	c.Append([]int{0, 0}, 4)
	c.Append([]int{0, 1}, 5)
	merged := c.Dedup()
	if merged != 2 {
		t.Fatalf("merged = %d, want 2", merged)
	}
	if c.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", c.NNZ())
	}
	// Find (0,1): must hold 1+3+5 = 9.
	found := false
	for p := 0; p < c.NNZ(); p++ {
		if c.Inds[0][p] == 0 && c.Inds[1][p] == 1 {
			found = true
			if c.Vals[p] != 9 {
				t.Fatalf("merged value = %v, want 9", c.Vals[p])
			}
		}
	}
	if !found {
		t.Fatal("coordinate (0,1) lost")
	}
}

// TestDedupReleasesMergedStorage checks that a Dedup which merges most
// records away moves the survivors into right-sized storage.
func TestDedupReleasesMergedStorage(t *testing.T) {
	c := NewCOO([]int{2, 2}, 10)
	for p := 0; p < 10; p++ {
		c.Append([]int{p % 2, 0}, 1)
	}
	if merged := c.Dedup(); merged != 8 {
		t.Fatalf("merged = %d, want 8", merged)
	}
	if cap(c.Vals) != 2 || cap(c.Inds[0]) != 2 || cap(c.Inds[1]) != 2 {
		t.Fatalf("capacities vals %d inds %d/%d after merging 10 to 2, want 2", cap(c.Vals), cap(c.Inds[0]), cap(c.Inds[1]))
	}
}

func TestDedupNoDuplicatesNoop(t *testing.T) {
	c := smallCOO()
	if m := c.Dedup(); m != 0 {
		t.Fatalf("merged %d from duplicate-free tensor", m)
	}
	if c.NNZ() != 4 {
		t.Fatalf("nnz changed to %d", c.NNZ())
	}
}

func TestDedupEmpty(t *testing.T) {
	c := NewCOO([]int{2, 2}, 0)
	if c.Dedup() != 0 {
		t.Fatal("empty dedup must merge nothing")
	}
}

func TestSliceCounts(t *testing.T) {
	c := smallCOO()
	counts := c.SliceCounts(0)
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("SliceCounts = %v", counts)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != c.NNZ() {
		t.Fatal("slice counts must sum to nnz")
	}
}

func TestStringSummary(t *testing.T) {
	if s := smallCOO().String(); s == "" {
		t.Fatal("empty String")
	}
}

func TestValidate(t *testing.T) {
	good := smallCOO()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// Ragged index arrays.
	bad := smallCOO()
	bad.Inds[1] = bad.Inds[1][:2]
	if err := bad.Validate(); err == nil {
		t.Error("ragged indices accepted")
	}
	// Out-of-range index (corrupt directly, bypassing Append's check).
	bad2 := smallCOO()
	bad2.Inds[0][0] = 99
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range index accepted")
	}
	// Non-finite values.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad3 := smallCOO()
		bad3.Vals[1] = v
		if err := bad3.Validate(); err == nil {
			t.Errorf("value %v accepted", v)
		}
	}
}
