package ooc

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"aoadmm/internal/alto"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/tensor"
)

// writeColumnShards writes coo as a VersionColumns shard directory the way
// the converter did before key-ordered shards: lexicographically sorted
// records cut into shards of about perShard non-zeros at mode-0 boundaries,
// each payload N int32 index columns then float64 values.
func writeColumnShards(t *testing.T, coo *tensor.COO, dir string, perShard int) {
	t.Helper()
	x := sortedClone(coo)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	h := &Header{Version: VersionColumns, Dims: x.Dims, NNZ: int64(x.NNZ()), NormSq: x.NormSq()}
	begin := 0
	for begin < x.NNZ() {
		end := min(begin+perShard, x.NNZ())
		for end < x.NNZ() && x.Inds[0][end] == x.Inds[0][end-1] {
			end++
		}
		var buf []byte
		for m := range x.Inds {
			for _, idx := range x.Inds[m][begin:end] {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(idx))
			}
		}
		for _, v := range x.Vals[begin:end] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		if err := os.WriteFile(filepath.Join(dir, ShardFileName(len(h.Shards))), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		lo := int64(0)
		if n := len(h.Shards); n > 0 {
			lo = h.Shards[n-1].Hi
		}
		hi := int64(x.Dims[0])
		if end < x.NNZ() {
			hi = int64(x.Inds[0][end])
		}
		h.Shards = append(h.Shards, ShardInfo{NNZ: int64(end - begin), Lo: lo, Hi: hi, CRC: crc32.ChecksumIEEE(buf)})
		begin = end
	}
	if err := os.WriteFile(filepath.Join(dir, HeaderFileName), EncodeHeader(h), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestConverterWritesALTOShards: the converter writes VersionALTO, and the
// stored keys decode to exactly the input non-zeros.
func TestConverterWritesALTOShards(t *testing.T) {
	coo := genTensor(t, []int{35, 25, 15}, 2500, 13)
	st, err := ConvertCOO(coo, filepath.Join(t.TempDir(), "shards"), ConvertOptions{TargetShardBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Version() != VersionALTO || st.h.BlockBits != alto.DefaultBlockBits || st.h.KeyWords != 1 {
		t.Fatalf("header version %d block bits %d key words %d", st.Version(), st.h.BlockBits, st.h.KeyWords)
	}
	got, err := st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	equalCOO(t, sortedClone(coo), got)
}

// TestColumnShardsStillStream: a VersionColumns directory opens, loads and
// streams through the per-shard CSF path.
func TestColumnShardsStillStream(t *testing.T) {
	dims := []int{35, 25, 15}
	coo := genTensor(t, dims, 2500, 13)
	dir := filepath.Join(t.TempDir(), "v1")
	writeColumnShards(t, coo, dir, 400)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version() != VersionColumns || st.NumShards() < 3 {
		t.Fatalf("version %d with %d shards", st.Version(), st.NumShards())
	}
	got, err := st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	equalCOO(t, sortedClone(coo), got)

	const rank = 5
	factors := make([]*dense.Matrix, len(dims))
	for m := range factors {
		factors[m] = deterministicMatrix(dims[m], rank, int64(m+1))
	}
	for mode := range dims {
		tree := csf.Build(coo.Clone(), csf.DefaultPerm(len(dims), mode))
		want := dense.New(dims[mode], rank)
		mttkrp.Compute(tree, factors, want, nil, mttkrp.Options{Threads: 1})
		got := dense.New(dims[mode], rank)
		var stats StreamStats
		if err := st.MTTKRPKernel("", mode, factors, got, nil, mttkrp.Options{Threads: 1}, &stats); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if d := math.Abs(want.Data[i] - got.Data[i]); d > 1e-9 {
				t.Fatalf("mode %d: |diff| %g", mode, d)
			}
		}
		if k := stats.Snapshot().ShardKernels; k["csf"] != int64(st.NumShards()) || k["alto"] != 0 {
			t.Fatalf("mode %d: shard kernels %v", mode, k)
		}
	}
}

// TestStreamingDeterministicALTO: streaming ALTO shards is bitwise
// repeatable at a fixed thread count, serial and parallel.
func TestStreamingDeterministicALTO(t *testing.T) {
	dims := []int{60, 40, 50}
	coo := genTensor(t, dims, 30000, 21)
	st, err := ConvertCOO(coo, filepath.Join(t.TempDir(), "shards"), ConvertOptions{TargetShardBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const rank = 7
	factors := make([]*dense.Matrix, len(dims))
	for m := range factors {
		factors[m] = deterministicMatrix(dims[m], rank, int64(m+3))
	}
	for _, threads := range []int{1, 2, 4} {
		for mode := range dims {
			first := dense.New(dims[mode], rank)
			if err := st.MTTKRP(mode, factors, first, nil, mttkrp.Options{Threads: threads}, nil); err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ {
				again := dense.New(dims[mode], rank)
				if err := st.MTTKRP(mode, factors, again, nil, mttkrp.Options{Threads: threads}, nil); err != nil {
					t.Fatal(err)
				}
				for i := range first.Data {
					if math.Float64bits(first.Data[i]) != math.Float64bits(again.Data[i]) {
						t.Fatalf("threads %d mode %d rep %d: element %d moved", threads, mode, rep, i)
					}
				}
			}
		}
	}
}

// TestWideKeysFallBackToColumns: a tensor whose key would exceed
// alto.MaxKeyBits is written as VersionColumns and still round-trips.
func TestWideKeysFallBackToColumns(t *testing.T) {
	dims := []int{1 << 30, 1 << 30, 1 << 30, 1 << 30, 1 << 30}
	coo := genTensor(t, dims, 300, 4)
	st, err := ConvertCOO(coo, filepath.Join(t.TempDir(), "shards"), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Version() != VersionColumns {
		t.Fatalf("150-bit keys written as version %d", st.Version())
	}
	got, err := st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	equalCOO(t, sortedClone(coo), got)
}

// FuzzShardPayload drives the VersionALTO payload decoder with mutated
// payloads: decreasing keys, index bits past a non-power-of-two dim,
// non-finite values, truncation. Every input decodes or errors; none
// panics, and a decoded shard stays inside its dims and mode-0 range.
func FuzzShardPayload(f *testing.F) {
	dims := []int{10, 6, 5} // no dim is a power of two
	coo, err := tensor.Uniform(tensor.GenOptions{Dims: dims, NNZ: 60, Seed: 8})
	if err != nil {
		f.Fatal(err)
	}
	l, err := alto.NewLayout(dims, alto.DefaultBlockBits)
	if err != nil {
		f.Fatal(err)
	}
	at, err := alto.Build(coo, alto.Options{})
	if err != nil {
		f.Fatal(err)
	}
	keyed := at.ToCOO()
	keys := make([]uint64, keyed.NNZ())
	l.Linearize(keyed.Inds, keys, nil)
	var good []byte
	for _, k := range keys {
		good = binary.LittleEndian.AppendUint64(good, k)
	}
	for _, v := range keyed.Vals {
		good = binary.LittleEndian.AppendUint64(good, math.Float64bits(v))
	}
	n := len(keys)
	mutate := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		fn(b)
		return b
	}
	f.Add(good, uint8(0))
	f.Add(mutate(func(b []byte) { copy(b[0:8], b[8*(n-1):8*n]) }), uint8(0))                                 // decreasing keys
	f.Add(mutate(func(b []byte) { b[8*(n-1)] |= 0x0f }), uint8(0))                                           // mode-0 bits past dim 10
	f.Add(mutate(func(b []byte) { b[8*(n-1)+1] |= 0xff }), uint8(0))                                         // modes 1, 2 past their dims
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[8*n:], 0x7ff8000000000001) }), uint8(0))   // NaN
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[8*n+8:], 0x7ff0000000000000) }), uint8(0)) // +Inf
	f.Add(good[:len(good)-3], uint8(0))                                                                      // truncated
	f.Add(good, uint8(3))                                                                                    // narrower mode-0 range
	f.Fuzz(func(t *testing.T, payload []byte, cut uint8) {
		if len(payload)%16 != 0 {
			// A torn payload never reaches the decoder: LoadShard checks the
			// length first. Decode it anyway as a shard of the size the
			// header would claim, which must fail cleanly.
			if _, err := decodeALTOShard(payload, l, ShardInfo{NNZ: int64(len(payload)/16 + 1), Lo: 0, Hi: 10}, 0); err == nil {
				t.Fatal("torn payload decoded")
			}
			return
		}
		info := ShardInfo{NNZ: int64(len(payload) / 16), Lo: int64(cut % 10), Hi: 10}
		if info.NNZ == 0 {
			return
		}
		sh, err := decodeALTOShard(payload, l, info, 0)
		if err != nil {
			return
		}
		c := sh.ToCOO()
		if err := c.Validate(); err != nil {
			t.Fatalf("decoded shard invalid: %v", err)
		}
		for p, r := range c.Inds[0] {
			if int64(r) < info.Lo || int64(r) >= info.Hi {
				t.Fatalf("non-zero %d mode-0 index %d outside [%d, %d)", p, r, info.Lo, info.Hi)
			}
		}
	})
}
