package ooc

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"aoadmm/internal/tensor"
)

// FuzzShardHeader hardens the shard-header decoder: any byte stream must
// either decode into a header whose invariants all hold or return an error —
// never panic, never allocate proportionally to forged length fields.
func FuzzShardHeader(f *testing.F) {
	good := &Header{
		Dims:   []int{10, 8, 6},
		NNZ:    9,
		NormSq: 3.5,
		Shards: []ShardInfo{
			{NNZ: 4, Lo: 0, Hi: 5, CRC: 0xdeadbeef},
			{NNZ: 5, Lo: 5, Hi: 10, CRC: 0x01020304},
		},
	}
	enc := EncodeHeader(good)
	f.Add(enc)
	// VersionALTO headers: one- and two-word keys, and a key word count
	// that disagrees with the dims.
	v2 := *good
	v2.Version, v2.BlockBits, v2.KeyWords = VersionALTO, 8, 1
	f.Add(EncodeHeader(&v2))
	wide := v2
	wide.Dims = []int{10, 1 << 30, 1 << 30, 1 << 30}
	wide.KeyWords = 2
	f.Add(EncodeHeader(&wide))
	wide.KeyWords = 1
	f.Add(EncodeHeader(&wide))
	f.Add(enc[:len(enc)-1]) // truncated CRC
	f.Add(append(enc, 0))   // trailing garbage
	f.Add([]byte("AOSH"))   // magic only
	f.Add([]byte{})         // empty
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHeader(data)
		if err != nil {
			return
		}
		// Decoded successfully: structural invariants must hold.
		if h.Order() < 1 || len(h.Shards) < 1 {
			t.Fatalf("decoded degenerate header: %+v", h)
		}
		var sum int64
		lo := int64(0)
		for i, s := range h.Shards {
			if s.NNZ <= 0 || s.Lo != lo || s.Hi <= s.Lo {
				t.Fatalf("shard %d violates range invariants: %+v", i, s)
			}
			lo = s.Hi
			sum += s.NNZ
		}
		if lo != int64(h.Dims[0]) || sum != h.NNZ {
			t.Fatalf("header totals inconsistent: %+v", h)
		}
		// And it must re-encode to the identical byte string (canonical form).
		if !bytes.Equal(EncodeHeader(h), data) {
			t.Fatal("decode/encode round trip not canonical")
		}
	})
}

// FuzzOpenShardDir drives Open + LoadShard with a fuzzed header over real
// shard files: corruption must surface as an error, never a panic.
func FuzzOpenShardDir(f *testing.F) {
	coo, err := tensor.Uniform(tensor.GenOptions{Dims: []int{12, 8, 6}, NNZ: 300, Seed: 9})
	if err != nil {
		f.Fatal(err)
	}
	seedDir := f.TempDir()
	st, err := ConvertCOO(coo, filepath.Join(seedDir, "shards"), ConvertOptions{TargetShardBytes: 1 << 10})
	if err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(st.Dir(), HeaderFileName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw) // the converter writes VersionALTO
	f.Add(raw[:len(raw)/2])
	if h, err := DecodeHeader(raw); err == nil {
		h.BlockBits = 3 // a different interleave: the shards misdecode
		f.Add(EncodeHeader(h))
		h.Version, h.BlockBits, h.KeyWords = VersionColumns, 0, 0 // wrong payload size
		f.Add(EncodeHeader(h))
	}
	f.Fuzz(func(t *testing.T, header []byte) {
		dir := t.TempDir()
		for i := 0; i < st.NumShards(); i++ {
			src, err := os.ReadFile(filepath.Join(st.Dir(), ShardFileName(i)))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, ShardFileName(i)), src, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, HeaderFileName), header, 0o644); err != nil {
			t.Fatal(err)
		}
		opened, err := Open(dir)
		if err != nil {
			return
		}
		for i := 0; i < opened.NumShards(); i++ {
			// Either decodes cleanly or errors; never panics.
			_, _ = opened.LoadShard(i)
		}
	})
}
