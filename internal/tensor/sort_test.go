package tensor

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// less compares non-zeros p and q lexicographically under the mode
// permutation perm (perm[0] is the most significant mode).
func (t *COO) less(perm []int, p, q int) bool {
	for _, m := range perm {
		if t.Inds[m][p] != t.Inds[m][q] {
			return t.Inds[m][p] < t.Inds[m][q]
		}
	}
	return false
}

// stableOracle is the reference Sort: a comparison-based stable sort of the
// non-zero positions under perm, then one permutation of the storage.
func stableOracle(t *COO, perm []int) *COO {
	idx := make([]int, t.NNZ())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return t.less(perm, idx[a], idx[b]) })
	out := NewCOO(t.Dims, t.NNZ())
	for m := range t.Inds {
		for _, p := range idx {
			out.Inds[m] = append(out.Inds[m], t.Inds[m][p])
		}
	}
	for _, p := range idx {
		out.Vals = append(out.Vals, t.Vals[p])
	}
	return out
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for at := 0; at <= len(sub); at++ {
			p := append(append(append([]int{}, sub[:at]...), n-1), sub[at:]...)
			out = append(out, p)
		}
	}
	return out
}

// assertSortMatchesOracle sorts a clone of c under perm and requires the
// result to equal the oracle's element for element. Values are distinct per
// position, so any tie broken differently from the stable order shows.
func assertSortMatchesOracle(t *testing.T, c *COO, perm []int) {
	t.Helper()
	want := stableOracle(c, perm)
	got := c.Clone()
	got.Sort(perm)
	for m := range want.Inds {
		for p := range want.Inds[m] {
			if got.Inds[m][p] != want.Inds[m][p] {
				t.Fatalf("perm %v: mode %d position %d index %d, want %d", perm, m, p, got.Inds[m][p], want.Inds[m][p])
			}
		}
	}
	for p := range want.Vals {
		if got.Vals[p] != want.Vals[p] {
			t.Fatalf("perm %v: position %d value %v, want %v (tie order differs)", perm, p, got.Vals[p], want.Vals[p])
		}
	}
}

// randomCOO draws nnz coordinates from [base, base+width) per mode, capped at
// each dim, with value p at position p so tie order is observable.
func randomCOO(rng *rand.Rand, dims, width []int, nnz int) *COO {
	c := NewCOO(dims, nnz)
	for m := range dims {
		base := 0
		if dims[m] > width[m] {
			base = rng.Intn(dims[m] - width[m] + 1)
		}
		for p := 0; p < nnz; p++ {
			c.Inds[m] = append(c.Inds[m], int32(base+rng.Intn(width[m])))
		}
	}
	for p := 0; p < nnz; p++ {
		c.Vals = append(c.Vals, float64(p))
	}
	return c
}

func TestSortMatchesStableTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name  string
		dims  []int
		width []int
		nnz   int
	}{
		{"empty", []int{3, 4, 5}, []int{3, 4, 5}, 0},
		{"single", []int{3, 4, 5}, []int{3, 4, 5}, 1},
		{"3-mode", []int{20, 30, 40}, []int{20, 30, 40}, 500},
		{"3-mode duplicates", []int{3, 2, 3}, []int{3, 2, 3}, 400},
		{"constant mode", []int{5, 1, 7}, []int{5, 1, 7}, 200},
		{"4-mode", []int{6, 9, 4, 11}, []int{6, 9, 4, 11}, 800},
		{"4-mode duplicates", []int{2, 3, 2, 3}, []int{2, 3, 2, 3}, 300},
		{"offset range", []int{1000, 1000, 1000}, []int{5, 900, 3}, 600},
		{"multi-digit mode", []int{1 << 20, 50, 3}, []int{1 << 20, 50, 3}, 3000},
		{"two wide modes", []int{70000, 3, 1 << 18}, []int{70000, 3, 1 << 18}, 2000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := randomCOO(rng, tc.dims, tc.width, tc.nnz)
			for _, perm := range permutations(len(tc.dims)) {
				assertSortMatchesOracle(t, c, perm)
			}
		})
	}
}

// TestSortAlreadySortedAndReversed covers the in-order fast path and the
// reverse-sorted worst case for the cycle-following value permutation.
func TestSortAlreadySortedAndReversed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomCOO(rng, []int{40, 300, 70000}, []int{40, 300, 70000}, 1500)
	perm := []int{0, 1, 2}
	c.Sort(perm)
	for p := range c.Vals {
		c.Vals[p] = float64(p)
	}
	assertSortMatchesOracle(t, c, perm)
	rev := NewCOO(c.Dims, c.NNZ())
	for p := c.NNZ() - 1; p >= 0; p-- {
		rev.Append(c.At(p), c.Vals[p])
	}
	for _, perm := range permutations(3) {
		assertSortMatchesOracle(t, rev, perm)
	}
}

func TestSortMatchesStableProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 2 + rng.Intn(3)
		dims := make([]int, order)
		for m := range dims {
			// Mostly narrow modes (many ties), sometimes one past 2^16.
			dims[m] = 1 + rng.Intn(8)
			if rng.Intn(4) == 0 {
				dims[m] = 1 + rng.Intn(1<<17)
			}
		}
		c := randomCOO(rng, dims, dims, rng.Intn(300))
		perms := permutations(order)
		perm := perms[rng.Intn(len(perms))]
		want := stableOracle(c, perm)
		got := c.Clone()
		got.Sort(perm)
		for m := range want.Inds {
			for p := range want.Inds[m] {
				if got.Inds[m][p] != want.Inds[m][p] {
					return false
				}
			}
		}
		for p := range want.Vals {
			if got.Vals[p] != want.Vals[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSortAllocatesConstant pins Sort's allocations to a fixed count
// independent of nnz: no per-element or per-pass allocation.
func TestSortAllocatesConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	allocs := func(nnz int) float64 {
		src := randomCOO(rng, []int{50, 1 << 18, 30}, []int{50, 1 << 18, 30}, nnz)
		work := src.Clone()
		perm := []int{2, 1, 0}
		return testing.AllocsPerRun(5, func() {
			copy(work.Vals, src.Vals)
			for m := range work.Inds {
				copy(work.Inds[m], src.Inds[m])
			}
			work.Sort(perm)
		})
	}
	small, large := allocs(1000), allocs(50000)
	if small != large || large > 5 {
		t.Fatalf("Sort allocations: %v at nnz 1000, %v at nnz 50000; want equal and ≤ 5", small, large)
	}
}

// FuzzSortMatchesStable decodes arbitrary bytes into a small tensor and
// permutation and requires Sort to agree with the stable comparison sort.
func FuzzSortMatchesStable(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 5, 5, 5, 1, 2, 3, 4, 0, 0, 1, 1, 2, 2})
	f.Add([]byte{4, 3, 2, 1, 0, 2, 2, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 255, 255, 9, 9, 200, 3, 7, 7, 7, 7})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		order := 1 + int(data[0])%4
		data = data[1:]
		perms := permutations(order)
		var perm []int
		if len(data) > 0 {
			perm = perms[int(data[0])%len(perms)]
			data = data[1:]
		} else {
			perm = perms[0]
		}
		// One byte of each coordinate, widened by mode so the last mode
		// spans past 2^16 and needs two digits.
		dims := make([]int, order)
		for m := range dims {
			dims[m] = 256 << (8*(m%2) + m)
		}
		nnz := len(data) / order
		c := NewCOO(dims, nnz)
		for p := 0; p < nnz; p++ {
			for m := 0; m < order; m++ {
				v := int(data[p*order+m])
				if m%2 == 1 {
					v = v<<8 | v
				}
				c.Inds[m] = append(c.Inds[m], int32(v<<m))
			}
			c.Vals = append(c.Vals, float64(p))
		}
		assertSortMatchesOracle(t, c, perm)
	})
}
