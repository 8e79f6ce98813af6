package csf

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"aoadmm/internal/tensor"
)

// paperTensor builds the four-mode, 5-non-zero example of Fig. 2 in the
// paper: coordinates (1-based in the figure) listed in coordinate form.
func paperTensor() *tensor.COO {
	t := tensor.NewCOO([]int{2, 2, 2, 2}, 5)
	// Fig. 2a lists five non-zeros of a 4-mode tensor. We use a concrete
	// reading: rows (i, j, k, l, val).
	t.Append([]int{0, 0, 0, 0}, 1)
	t.Append([]int{0, 0, 1, 0}, 2)
	t.Append([]int{0, 1, 0, 1}, 3)
	t.Append([]int{1, 0, 1, 1}, 4)
	t.Append([]int{1, 1, 1, 1}, 5)
	return t
}

func TestBuildRoundTripsSmall(t *testing.T) {
	coo := paperTensor()
	c := Build(coo.Clone(), DefaultPerm(4, 0))
	if c.NNZ() != 5 || c.Order() != 4 {
		t.Fatalf("nnz=%d order=%d", c.NNZ(), c.Order())
	}
	back := c.ToCOO()
	back.Dedup()
	want := coo.Clone()
	want.Dedup()
	assertSameCOO(t, want, back)
}

func TestBuildCompression(t *testing.T) {
	// Two non-zeros sharing the first two modes must share nodes at depths
	// 0 and 1.
	coo := tensor.NewCOO([]int{2, 2, 4}, 3)
	coo.Append([]int{0, 0, 1}, 1)
	coo.Append([]int{0, 0, 3}, 2)
	coo.Append([]int{1, 0, 0}, 3)
	c := Build(coo, DefaultPerm(3, 0))
	if c.NSlices() != 2 {
		t.Fatalf("NSlices = %d, want 2", c.NSlices())
	}
	if c.NNodes(1) != 2 {
		t.Fatalf("depth-1 nodes = %d, want 2 (fiber sharing)", c.NNodes(1))
	}
	if c.NNodes(2) != 3 {
		t.Fatalf("leaves = %d, want 3", c.NNodes(2))
	}
	// Slice 0's single fiber has two leaves.
	b, e := c.Children(0, 0)
	if e-b != 1 {
		t.Fatalf("slice 0 fibers = %d, want 1", e-b)
	}
	lb, le := c.Children(1, b)
	if le-lb != 2 {
		t.Fatalf("fiber leaves = %d, want 2", le-lb)
	}
}

func assertSameCOO(t *testing.T, want, got *tensor.COO) {
	t.Helper()
	if got.NNZ() != want.NNZ() {
		t.Fatalf("nnz %d != %d", got.NNZ(), want.NNZ())
	}
	perm := make([]int, want.Order())
	for i := range perm {
		perm[i] = i
	}
	want.Sort(perm)
	got.Sort(perm)
	for p := 0; p < want.NNZ(); p++ {
		for m := 0; m < want.Order(); m++ {
			if want.Inds[m][p] != got.Inds[m][p] {
				t.Fatalf("nz %d mode %d: %d != %d", p, m, got.Inds[m][p], want.Inds[m][p])
			}
		}
		if math.Abs(want.Vals[p]-got.Vals[p]) > 1e-12 {
			t.Fatalf("nz %d value %v != %v", p, got.Vals[p], want.Vals[p])
		}
	}
}

func TestRoundTripPropertyAllRoots(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 2 + rng.Intn(3) // 2..4 modes
		dims := make([]int, order)
		for m := range dims {
			dims[m] = 1 + rng.Intn(8)
		}
		coo := tensor.NewCOO(dims, 30)
		for p := 0; p < 30; p++ {
			coord := make([]int, order)
			for m := range coord {
				coord[m] = rng.Intn(dims[m])
			}
			coo.Append(coord, rng.NormFloat64())
		}
		coo.Dedup()
		for root := 0; root < order; root++ {
			c := Build(coo.Clone(), DefaultPerm(order, root))
			back := c.ToCOO()
			if back.NNZ() != coo.NNZ() {
				return false
			}
			p := make([]int, order)
			for i := range p {
				p[i] = i
			}
			back.Sort(p)
			ref := coo.Clone()
			ref.Sort(p)
			for i := 0; i < ref.NNZ(); i++ {
				for m := 0; m < order; m++ {
					if ref.Inds[m][i] != back.Inds[m][i] {
						return false
					}
				}
				if math.Abs(ref.Vals[i]-back.Vals[i]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildMatchesStableSortOrder builds every root's tree twice: once from
// the raw COO (Build's radix sort) and once from a COO pre-ordered by a
// comparison-based stable sort. The trees must be identical field for field;
// duplicate coordinates carry distinct values, so a different tie order
// would show in Vals.
func TestBuildMatchesStableSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range [][]int{{7, 300, 5}, {4, 1 << 17, 6, 3}} {
		coo := tensor.NewCOO(dims, 2000)
		for p := 0; p < 2000; p++ {
			coord := make([]int, len(dims))
			for m := range coord {
				coord[m] = rng.Intn(dims[m])
			}
			coo.Append(coord, float64(p))
		}
		for root := range dims {
			perm := DefaultPerm(len(dims), root)
			got := Build(coo.Clone(), perm)
			want := Build(stableSorted(coo, perm), perm)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dims %v root %d: radix-built tree differs from stable-sort-built tree", dims, root)
			}
		}
	}
}

// stableSorted returns a copy of x ordered by sort.SliceStable under perm.
func stableSorted(x *tensor.COO, perm []int) *tensor.COO {
	idx := make([]int, x.NNZ())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for _, m := range perm {
			if ia, ib := x.Inds[m][idx[a]], x.Inds[m][idx[b]]; ia != ib {
				return ia < ib
			}
		}
		return false
	})
	out := tensor.NewCOO(x.Dims, x.NNZ())
	for _, p := range idx {
		out.Append(x.At(p), x.Vals[p])
	}
	return out
}

func TestFIDsSortedWithinParents(t *testing.T) {
	coo, _, err := tensor.PlantedLowRank(tensor.GenOptions{
		Dims: []int{12, 13, 14}, NNZ: 300, Rank: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := Build(coo, DefaultPerm(3, 1))
	// Root slice ids strictly increasing.
	for n := 1; n < c.NSlices(); n++ {
		if c.FIDs[0][n] <= c.FIDs[0][n-1] {
			t.Fatalf("root fids not strictly increasing at %d", n)
		}
	}
	// Children strictly increasing within each parent.
	for d := 0; d < c.Order()-1; d++ {
		for n := 0; n < c.NNodes(d); n++ {
			b, e := c.Children(d, n)
			if b >= e {
				t.Fatalf("empty child range at depth %d node %d", d, n)
			}
			for ch := b + 1; ch < e; ch++ {
				if c.FIDs[d+1][ch] <= c.FIDs[d+1][ch-1] {
					t.Fatalf("children not strictly increasing at depth %d node %d", d+1, ch)
				}
			}
		}
	}
}

func TestChildRangesPartitionNextLevel(t *testing.T) {
	coo, err := tensor.Uniform(tensor.GenOptions{Dims: []int{9, 10, 11, 5}, NNZ: 400, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	c := Build(coo, DefaultPerm(4, 2))
	for d := 0; d < c.Order()-1; d++ {
		prevEnd := 0
		for n := 0; n < c.NNodes(d); n++ {
			b, e := c.Children(d, n)
			if b != prevEnd {
				t.Fatalf("depth %d node %d: child begin %d != prev end %d", d, n, b, prevEnd)
			}
			prevEnd = e
		}
		if prevEnd != c.NNodes(d+1) {
			t.Fatalf("depth %d: ranges cover %d of %d next-level nodes", d, prevEnd, c.NNodes(d+1))
		}
	}
}

func TestDefaultPerm(t *testing.T) {
	got := DefaultPerm(4, 2)
	want := []int{2, 0, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DefaultPerm = %v", got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad root")
		}
	}()
	DefaultPerm(3, 3)
}

func TestBuildSetRootsEachMode(t *testing.T) {
	coo, err := tensor.Uniform(tensor.GenOptions{Dims: []int{6, 7, 8}, NNZ: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s := BuildSet(coo)
	if len(s.Trees) != 3 {
		t.Fatalf("%d trees", len(s.Trees))
	}
	for m := 0; m < 3; m++ {
		if s.Tree(m).RootMode() != m {
			t.Fatalf("tree %d rooted at %d", m, s.Tree(m).RootMode())
		}
		if s.Tree(m).NNZ() != coo.NNZ() {
			t.Fatalf("tree %d nnz %d != %d", m, s.Tree(m).NNZ(), coo.NNZ())
		}
	}
}

func TestSliceCountsMatchCOO(t *testing.T) {
	coo, err := tensor.Uniform(tensor.GenOptions{
		Dims: []int{40, 30, 20}, NNZ: 500, Seed: 12, Skew: []float64{1.4, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := coo.SliceCounts(0)
	c := Build(coo, DefaultPerm(3, 0))
	// Sum of leaves under each root slice must equal the COO slice count.
	for n := 0; n < c.NSlices(); n++ {
		slice := int(c.FIDs[0][n])
		leaves := 0
		fb, fe := c.Children(0, n)
		for f := fb; f < fe; f++ {
			lb, le := c.Children(1, f)
			leaves += le - lb
		}
		if leaves != counts[slice] {
			t.Fatalf("slice %d: %d leaves, COO says %d", slice, leaves, counts[slice])
		}
	}
}

func TestMemoryBytesPositiveAndOrdered(t *testing.T) {
	small, _ := tensor.Uniform(tensor.GenOptions{Dims: []int{5, 5, 5}, NNZ: 10, Seed: 13})
	big, _ := tensor.Uniform(tensor.GenOptions{Dims: []int{50, 50, 50}, NNZ: 5000, Seed: 13})
	cs := Build(small, DefaultPerm(3, 0))
	cb := Build(big, DefaultPerm(3, 0))
	if cs.MemoryBytes() <= 0 || cb.MemoryBytes() <= cs.MemoryBytes() {
		t.Fatalf("memory bytes: small=%d big=%d", cs.MemoryBytes(), cb.MemoryBytes())
	}
}

func TestBuildInvalidPermPanics(t *testing.T) {
	coo := paperTensor()
	for _, perm := range [][]int{{0, 1, 2}, {0, 1, 2, 2}, {0, 1, 2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for perm %v", perm)
				}
			}()
			Build(coo.Clone(), perm)
		}()
	}
}

func TestEmptyTensor(t *testing.T) {
	coo := tensor.NewCOO([]int{3, 3}, 0)
	c := Build(coo, DefaultPerm(2, 0))
	if c.NNZ() != 0 || c.NSlices() != 0 {
		t.Fatalf("empty CSF: nnz=%d slices=%d", c.NNZ(), c.NSlices())
	}
	c.Walk(func(coord []int, val float64) { t.Fatal("walk on empty tensor") })
}

func TestWalkVisitsInRootOrder(t *testing.T) {
	coo, _ := tensor.Uniform(tensor.GenOptions{Dims: []int{10, 4, 4}, NNZ: 60, Seed: 14})
	c := Build(coo, DefaultPerm(3, 0))
	var roots []int
	c.Walk(func(coord []int, val float64) { roots = append(roots, coord[0]) })
	if !sort.IntsAreSorted(roots) {
		t.Fatal("walk must visit root slices in order")
	}
}

// TestMemoryBytesMatchesCapacities checks the footprint report against the
// actual backing-array capacities for 3- and 4-mode trees: MemoryBytes feeds
// the out-of-core peak accounting, so it must reflect committed memory, not
// just the logical lengths.
func TestMemoryBytesMatchesCapacities(t *testing.T) {
	for _, dims := range [][]int{{12, 9, 7}, {10, 8, 6, 5}} {
		x, err := tensor.Uniform(tensor.GenOptions{Dims: dims, NNZ: 400, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		for root := 0; root < len(dims); root++ {
			c := Build(x, DefaultPerm(len(dims), root))
			want := cap(c.Vals) * 8
			for _, l := range c.FIDs {
				want += cap(l) * 4
			}
			for _, l := range c.FPtr {
				want += cap(l) * 4
			}
			if got := c.MemoryBytes(); got != want {
				t.Errorf("dims %v root %d: MemoryBytes %d, capacity sum %d", dims, root, got, want)
			}
			if got := c.MemoryBytes(); got <= 0 {
				t.Errorf("dims %v root %d: non-positive footprint %d", dims, root, got)
			}
		}
	}
}
