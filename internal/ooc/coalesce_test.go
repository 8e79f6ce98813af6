package ooc

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// TestConverterCoalesce checks the streaming converter's duplicate-coordinate
// mode: same-coordinate records sum into one non-zero, and the header's nnz
// and normSq describe the post-coalesce tensor.
func TestConverterCoalesce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out.aoshard")
	cv, err := NewConverter([]int{4, 3, 2}, dir, ConvertOptions{Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	add := func(i, j, k int32, v float64) {
		t.Helper()
		if err := cv.Add([]int32{i, j, k}, v); err != nil {
			t.Fatal(err)
		}
	}
	// {0,0,0} appears three times (scattered in the input order), {1,2,1}
	// twice, {3,0,1} once.
	add(0, 0, 0, 1)
	add(1, 2, 1, 5)
	add(0, 0, 0, 2)
	add(3, 0, 1, 7)
	add(1, 2, 1, -5) // cancels to zero — still stored, values are additive
	add(0, 0, 0, 4)

	st, err := cv.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if st.NNZ() != 3 {
		t.Fatalf("nnz %d, want 3 after coalescing 6 records", st.NNZ())
	}
	x, err := st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	got := map[[3]int32]float64{}
	for p := 0; p < x.NNZ(); p++ {
		got[[3]int32{x.Inds[0][p], x.Inds[1][p], x.Inds[2][p]}] = x.Vals[p]
	}
	want := map[[3]int32]float64{
		{0, 0, 0}: 7,
		{1, 2, 1}: 0,
		{3, 0, 1}: 7,
	}
	var normSq float64
	for c, w := range want {
		if got[c] != w {
			t.Errorf("coord %v = %v, want %v", c, got[c], w)
		}
		normSq += w * w
	}
	if math.Abs(st.NormSq()-normSq) > 1e-12 {
		t.Fatalf("normSq %v, want %v (post-coalesce)", st.NormSq(), normSq)
	}
}

// TestConverterNoCoalesceKeepsDuplicates pins the default behavior: without
// Coalesce, duplicate coordinates stay separate records.
func TestConverterNoCoalesceKeepsDuplicates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out.aoshard")
	cv, err := NewConverter([]int{4, 3, 2}, dir, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cv.Add([]int32{0, 0, 0}, 1); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cv.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if st.NNZ() != 3 {
		t.Fatalf("nnz %d, want 3 duplicate records", st.NNZ())
	}
}

// TestConverterAbortCleansUp checks Abort removes the partial output.
func TestConverterAbortCleansUp(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out.aoshard")
	cv, err := NewConverter([]int{4, 3, 2}, dir, ConvertOptions{Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := cv.Add([]int32{0, 0, 0}, 1); err != nil {
		t.Fatal(err)
	}
	cv.Abort()
	if IsShardDir(dir) {
		t.Fatal("aborted conversion left a shard dir behind")
	}
}

// TestConverterCoalescesInInputOrder: records that share a coordinate sum
// in the order they were added, wherever the other records sit, within one
// sort chunk and across spilled runs, so one multiset of records in one
// relative order always coalesces to the same bits. 1e16 + 1 rounds back to
// 1e16, so (1e16 + 1) - 1e16 is 0 while any other order gives 1 or 2.
func TestConverterCoalescesInInputOrder(t *testing.T) {
	dims := []int{20, 20, 20}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		budget := int64(0) // one chunk
		if trial%2 == 1 {
			budget = 4 << 10 // 68-record chunks: about six runs
		}
		var recs [][4]float64
		for len(recs) < 400 {
			c := [4]float64{float64(rng.Intn(20)), float64(rng.Intn(20)), float64(1 + rng.Intn(19)), 1}
			recs = append(recs, c) // mode 2 index >= 1: never the shared coordinate
		}
		shared := [][4]float64{{5, 5, 0, 1e16}, {5, 5, 0, 1}, {5, 5, 0, -1e16}}
		pos := rng.Perm(len(recs) + len(shared))[:len(shared)]
		sort.Ints(pos)
		for i, p := range pos {
			recs = slices.Insert(recs, p, shared[i])
		}
		dir := filepath.Join(t.TempDir(), "out.aoshard")
		cv, err := NewConverter(dims, dir, ConvertOptions{Coalesce: true, MemBudgetBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := cv.Add([]int32{int32(r[0]), int32(r[1]), int32(r[2])}, r[3]); err != nil {
				t.Fatal(err)
			}
		}
		st, err := cv.Finish()
		if err != nil {
			t.Fatal(err)
		}
		x, err := st.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < x.NNZ(); p++ {
			if x.Inds[0][p] == 5 && x.Inds[1][p] == 5 && x.Inds[2][p] == 0 && x.Vals[p] != 0 {
				t.Fatalf("trial %d (budget %d): shared coordinate summed to %v, want 0 (input order)", trial, budget, x.Vals[p])
			}
		}
	}
}
