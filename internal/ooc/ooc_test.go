package ooc

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/tensor"
)

// genTensor draws a deterministic sparse tensor for round-trip tests.
func genTensor(t *testing.T, dims []int, nnz int, seed int64) *tensor.COO {
	t.Helper()
	coo, err := tensor.Uniform(tensor.GenOptions{Dims: dims, NNZ: nnz, Seed: seed})
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	return coo
}

// sortedClone returns the tensor sorted lexicographically (mode-0 major),
// the order conversion must reproduce.
func sortedClone(t *tensor.COO) *tensor.COO {
	c := t.Clone()
	perm := make([]int, t.Order())
	for m := range perm {
		perm[m] = m
	}
	c.Sort(perm)
	return c
}

func equalCOO(t *testing.T, want, got *tensor.COO) {
	t.Helper()
	if got.NNZ() != want.NNZ() {
		t.Fatalf("nnz: got %d, want %d", got.NNZ(), want.NNZ())
	}
	for m := range want.Dims {
		if got.Dims[m] != want.Dims[m] {
			t.Fatalf("dims: got %v, want %v", got.Dims, want.Dims)
		}
	}
	for p := 0; p < want.NNZ(); p++ {
		for m := range want.Dims {
			if got.Inds[m][p] != want.Inds[m][p] {
				t.Fatalf("non-zero %d mode %d: got %d, want %d", p, m, got.Inds[m][p], want.Inds[m][p])
			}
		}
		if got.Vals[p] != want.Vals[p] {
			t.Fatalf("non-zero %d value: got %v, want %v", p, got.Vals[p], want.Vals[p])
		}
	}
}

func TestConvertCOORoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		dims []int
	}{
		{"3mode", []int{40, 30, 20}},
		{"4mode", []int{25, 20, 15, 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coo := genTensor(t, tc.dims, 3000, 7)
			dir := filepath.Join(t.TempDir(), "shards")
			// Tiny shard target forces many shards.
			st, err := ConvertCOO(coo, dir, ConvertOptions{TargetShardBytes: 4 << 10})
			if err != nil {
				t.Fatalf("ConvertCOO: %v", err)
			}
			if st.NumShards() < 2 {
				t.Fatalf("want >= 2 shards, got %d", st.NumShards())
			}
			if st.NNZ() != int64(coo.NNZ()) {
				t.Fatalf("nnz: got %d, want %d", st.NNZ(), coo.NNZ())
			}
			if math.Abs(st.NormSq()-coo.NormSq()) > 1e-9*coo.NormSq() {
				t.Fatalf("normSq: got %v, want %v", st.NormSq(), coo.NormSq())
			}
			// Shard ranges partition [0, dims[0]) and respect sort order.
			lo := int64(0)
			for i := 0; i < st.NumShards(); i++ {
				s := st.Shard(i)
				if s.Lo != lo {
					t.Fatalf("shard %d lo = %d, want %d", i, s.Lo, lo)
				}
				lo = s.Hi
			}
			if lo != int64(tc.dims[0]) {
				t.Fatalf("final hi = %d, want %d", lo, tc.dims[0])
			}
			got, err := st.ReadAll()
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			equalCOO(t, sortedClone(coo), got)
		})
	}
}

// TestConvertExternalSort forces multi-run external sorting with a tiny
// memory budget and checks the merged result is globally sorted.
func TestConvertExternalSort(t *testing.T) {
	coo := genTensor(t, []int{60, 25, 15}, 5000, 11)
	dir := filepath.Join(t.TempDir(), "shards")
	st, err := ConvertCOO(coo, dir, ConvertOptions{
		MemBudgetBytes:   64 << 10, // chunk of ~1000 records -> several runs
		TargetShardBytes: 8 << 10,
	})
	if err != nil {
		t.Fatalf("ConvertCOO: %v", err)
	}
	got, err := st.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	equalCOO(t, sortedClone(coo), got)
	// Tmp dir with run files must be cleaned up.
	if _, err := os.Stat(dir + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp dir not removed: %v", err)
	}
}

// TestConvertChunkGrowsOnDemand checks the sort chunk's sizing: a small
// conversion under the default 256 MiB budget must not commit the budget's
// third up front, and growth must not move the spill points, which stay at
// every budget/3 worth of records.
func TestConvertChunkGrowsOnDemand(t *testing.T) {
	coo := genTensor(t, []int{40, 30, 20}, 1000, 5)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ConvertCOO(coo, filepath.Join(t.TempDir(), "shards"), ConvertOptions{}); err != nil {
		t.Fatalf("ConvertCOO: %v", err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Fatalf("converting %d records allocated %d bytes, want < 4 MiB", coo.NNZ(), alloc)
	}

	big := genTensor(t, []int{60, 25, 15}, 5000, 11)
	const budget = 64 << 10
	c, err := newConverter(big.Dims, filepath.Join(t.TempDir(), "runs"), ConvertOptions{MemBudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer c.abort()
	coord := make([]int32, big.Order())
	for p := 0; p < big.NNZ(); p++ {
		for m := range coord {
			coord[m] = big.Inds[m][p]
		}
		if err := c.add(coord, big.Vals[p]); err != nil {
			t.Fatal(err)
		}
	}
	chunk := budget / (3 * int(recordBytes(big.Order())))
	if c.chunkCap != chunk || len(c.runs) != big.NNZ()/chunk {
		t.Fatalf("chunk cap %d with %d runs, want %d with %d", c.chunkCap, len(c.runs), chunk, big.NNZ()/chunk)
	}
}

func TestConvertFileTNSAndAOTN(t *testing.T) {
	coo := genTensor(t, []int{30, 20, 10}, 1500, 3)
	base := t.TempDir()

	tnsPath := filepath.Join(base, "t.tns")
	if err := tensor.SaveTNSFile(tnsPath, coo); err != nil {
		t.Fatalf("SaveTNSFile: %v", err)
	}
	aotnPath := filepath.Join(base, "t.aotn")
	if err := tensor.SaveBinaryFile(aotnPath, coo); err != nil {
		t.Fatalf("SaveBinaryFile: %v", err)
	}

	want := sortedClone(coo)
	for _, tc := range []struct{ name, path string }{
		{"tns", tnsPath},
		{"aotn", aotnPath},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(base, tc.name+"-shards")
			st, err := ConvertFile(tc.path, dir, ConvertOptions{TargetShardBytes: 4 << 10})
			if err != nil {
				t.Fatalf("ConvertFile: %v", err)
			}
			got, err := st.ReadAll()
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			// Text round-trip prints %g which is exact for float64.
			equalCOO(t, want, got)
		})
	}
}

func TestConvertRefusesExistingShardDir(t *testing.T) {
	coo := genTensor(t, []int{10, 10, 10}, 200, 1)
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := ConvertCOO(coo, dir, ConvertOptions{}); err != nil {
		t.Fatalf("first convert: %v", err)
	}
	if _, err := ConvertCOO(coo, dir, ConvertOptions{}); err == nil {
		t.Fatal("second convert into same dir should fail")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	coo := genTensor(t, []int{20, 15, 10}, 500, 5)
	dir := filepath.Join(t.TempDir(), "shards")
	st, err := ConvertCOO(coo, dir, ConvertOptions{TargetShardBytes: 2 << 10})
	if err != nil {
		t.Fatalf("ConvertCOO: %v", err)
	}
	if st.NumShards() < 2 {
		t.Fatalf("want >= 2 shards, got %d", st.NumShards())
	}

	t.Run("flipped-payload-byte", func(t *testing.T) {
		path := filepath.Join(dir, ShardFileName(0))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir)
		if err != nil {
			t.Fatalf("Open should succeed (lazy CRC): %v", err)
		}
		if _, err := st2.LoadShard(0); err == nil {
			t.Fatal("LoadShard of corrupted shard should fail")
		}
		// Restore for the sibling subtests.
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("truncated-shard", func(t *testing.T) {
		path := filepath.Join(dir, ShardFileName(1))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)-4], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatal("Open should reject torn shard")
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("corrupt-header", func(t *testing.T) {
		path := filepath.Join(dir, HeaderFileName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), raw...)
		bad[8] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatal("Open should reject corrupted header")
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStreamingMTTKRPMatchesInMemory checks the shard-at-a-time MTTKRP
// against the in-memory kernel for every mode of 3- and 4-way tensors.
func TestStreamingMTTKRPMatchesInMemory(t *testing.T) {
	for _, tc := range []struct {
		name string
		dims []int
	}{
		{"3mode", []int{35, 25, 15}},
		{"4mode", []int{20, 15, 12, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coo := genTensor(t, tc.dims, 2500, 13)
			dir := filepath.Join(t.TempDir(), "shards")
			st, err := ConvertCOO(coo, dir, ConvertOptions{TargetShardBytes: 4 << 10})
			if err != nil {
				t.Fatalf("ConvertCOO: %v", err)
			}
			if st.NumShards() < 3 {
				t.Fatalf("want >= 3 shards, got %d", st.NumShards())
			}

			const rank = 5
			order := len(tc.dims)
			factors := make([]*dense.Matrix, order)
			for m := range factors {
				factors[m] = deterministicMatrix(tc.dims[m], rank, int64(m+1))
			}

			for mode := 0; mode < order; mode++ {
				// Reference: in-memory CSF rooted at mode.
				tree := csf.Build(coo.Clone(), csf.DefaultPerm(order, mode))
				want := dense.New(tc.dims[mode], rank)
				mttkrp.Compute(tree, factors, want, nil, mttkrp.Options{Threads: 1})

				got := dense.New(tc.dims[mode], rank)
				scratch := dense.New(tc.dims[mode], rank)
				var stats StreamStats
				if err := st.MTTKRP(mode, factors, got, scratch, mttkrp.Options{Threads: 1}, &stats); err != nil {
					t.Fatalf("mode %d: %v", mode, err)
				}
				maxDiff := 0.0
				for i := range want.Data {
					if d := math.Abs(want.Data[i] - got.Data[i]); d > maxDiff {
						maxDiff = d
					}
				}
				if maxDiff > 1e-9 {
					t.Fatalf("mode %d: max |diff| = %g", mode, maxDiff)
				}
				if stats.Snapshot().ShardLoads != int64(st.NumShards()) {
					t.Fatalf("mode %d: %d shard loads, want %d", mode, stats.ShardLoads, st.NumShards())
				}
			}
		})
	}
}

// TestStreamingPeakWithinBudget converts under a budget smaller than the
// in-memory estimate and asserts the tracked high-water mark of the
// streaming engine stays within that budget.
func TestStreamingPeakWithinBudget(t *testing.T) {
	dims := []int{80, 40, 30}
	coo := genTensor(t, dims, 20000, 17)
	order := coo.Order()
	nnz := int64(coo.NNZ())

	// Pick a budget well below the in-memory footprint so the admission
	// layer would choose out-of-core, then shard with the derived target.
	budget := InMemoryBytes(order, nnz) / 4
	dec := Decide(order, nnz, budget)
	if !dec.OutOfCore {
		t.Fatalf("budget %d should trigger out-of-core (estimate %d)", budget, dec.EstimateBytes)
	}

	dir := filepath.Join(t.TempDir(), "shards")
	st, err := ConvertCOO(coo, dir, ConvertOptions{MemBudgetBytes: budget})
	if err != nil {
		t.Fatalf("ConvertCOO: %v", err)
	}

	const rank = 4
	factors := make([]*dense.Matrix, order)
	for m := range factors {
		factors[m] = deterministicMatrix(dims[m], rank, int64(m+1))
	}
	var stats StreamStats
	for mode := 0; mode < order; mode++ {
		out := dense.New(dims[mode], rank)
		scratch := dense.New(dims[mode], rank)
		if err := st.MTTKRP(mode, factors, out, scratch, mttkrp.Options{Threads: 1}, &stats); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
	}
	snap := stats.Snapshot()
	if snap.PeakBytes <= 0 {
		t.Fatal("peak accounting did not register")
	}
	if snap.PeakBytes > budget {
		t.Fatalf("tracked peak %d exceeds budget %d", snap.PeakBytes, budget)
	}
	if want := int64(order) * int64(st.NumShards()); snap.ShardLoads != want {
		t.Fatalf("%d shard loads, want %d", snap.ShardLoads, want)
	}
	if atomic.LoadInt64(&stats.resident) != 0 {
		t.Fatalf("resident bytes %d after streaming, want 0", stats.resident)
	}
}

func TestDecide(t *testing.T) {
	est := InMemoryBytes(3, 1000)
	if d := Decide(3, 1000, 0); d.OutOfCore {
		t.Fatal("zero budget must mean unlimited (in-memory)")
	}
	if d := Decide(3, 1000, est+1); d.OutOfCore {
		t.Fatal("budget above estimate must stay in-memory")
	}
	if d := Decide(3, 1000, est-1); !d.OutOfCore {
		t.Fatal("budget below estimate must go out-of-core")
	}
}

func TestIsShardDir(t *testing.T) {
	base := t.TempDir()
	if IsShardDir(base) {
		t.Fatal("empty dir is not a shard dir")
	}
	if IsShardDir(filepath.Join(base, "missing")) {
		t.Fatal("missing path is not a shard dir")
	}
	coo := genTensor(t, []int{10, 10, 10}, 100, 2)
	dir := filepath.Join(base, "shards")
	if _, err := ConvertCOO(coo, dir, ConvertOptions{}); err != nil {
		t.Fatal(err)
	}
	if !IsShardDir(dir) {
		t.Fatal("converted dir should be a shard dir")
	}
}

// deterministicMatrix fills a matrix from a tiny LCG so tests are seedable
// without pulling in math/rand ordering concerns.
func deterministicMatrix(rows, cols int, seed int64) *dense.Matrix {
	m := dense.New(rows, cols)
	x := uint64(seed)*2862933555777941757 + 3037000493
	for i := range m.Data {
		x = x*2862933555777941757 + 3037000493
		m.Data[i] = float64(x>>11) / float64(1<<53)
	}
	return m
}

func TestLoadRangeHandoff(t *testing.T) {
	coo := genTensor(t, []int{60, 25, 20}, 4000, 3)
	dir := filepath.Join(t.TempDir(), "shards")
	st, err := ConvertCOO(coo, dir, ConvertOptions{TargetShardBytes: 4 << 10})
	if err != nil {
		t.Fatalf("ConvertCOO: %v", err)
	}
	if st.NumShards() < 3 {
		t.Fatalf("want >= 3 shards to exercise boundary filtering, got %d", st.NumShards())
	}

	// Three contiguous worker ranges must partition the non-zeros exactly,
	// whatever the shard boundaries are.
	ranges := [][2]int{{0, 21}, {21, 44}, {44, 60}}
	var total int
	for _, span := range ranges {
		part, bytesRead, err := st.LoadRange(span[0], span[1])
		if err != nil {
			t.Fatalf("LoadRange%v: %v", span, err)
		}
		if bytesRead <= 0 {
			t.Fatalf("LoadRange%v read %d bytes", span, bytesRead)
		}
		for p, r := range part.Inds[0] {
			if int(r) < span[0] || int(r) >= span[1] {
				t.Fatalf("range %v non-zero %d has mode-0 index %d", span, p, r)
			}
		}
		total += part.NNZ()
	}
	if total != coo.NNZ() {
		t.Fatalf("ranges cover %d non-zeros, want %d", total, coo.NNZ())
	}

	// Shard selection is a contiguous run intersecting the range.
	ids := st.ShardsInRange(0, 1)
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("ShardsInRange(0,1) = %v", ids)
	}
	if got := st.ShardsInRange(0, 60); len(got) != st.NumShards() {
		t.Fatalf("full range selects %d of %d shards", len(got), st.NumShards())
	}

	// Degenerate and hostile ranges.
	if empty, _, err := st.LoadRange(10, 10); err != nil || empty.NNZ() != 0 {
		t.Fatalf("empty range: nnz=%v err=%v", empty.NNZ(), err)
	}
	if _, _, err := st.LoadRange(-1, 10); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, _, err := st.LoadRange(0, 61); err == nil {
		t.Fatal("hi beyond dim accepted")
	}
}
