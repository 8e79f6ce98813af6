package ooc

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadDecodesAcrossReadBuffers loads version 2 shards whose payloads
// span several 64 KiB read buffers, with one- and two-word keys, and checks
// every non-zero survives; then it corrupts one byte past the first buffer,
// which only the CRC over the whole streamed payload can catch.
func TestLoadDecodesAcrossReadBuffers(t *testing.T) {
	for _, tc := range []struct {
		dims  []int
		words int
	}{{[]int{200, 150, 100}, 1}, {[]int{1 << 22, 1 << 22, 1 << 22}, 2}} {
		dims := tc.dims
		coo := genTensor(t, dims, 20000, 17)
		dir := filepath.Join(t.TempDir(), "shards")
		st, err := ConvertCOO(coo, dir, ConvertOptions{TargetShardBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if st.Version() != VersionALTO || st.layout.Words() != tc.words {
			t.Fatalf("dims %v: store version %d, want %d with %d key words", dims, st.Version(), VersionALTO, tc.words)
		}
		size := st.h.shardPayloadBytes(st.Shard(0).NNZ)
		if size <= 3<<16 {
			t.Fatalf("dims %v: shard 0 payload %d bytes spans too few buffers", dims, size)
		}
		got, err := st.ReadAll()
		if err != nil {
			t.Fatalf("dims %v: ReadAll: %v", dims, err)
		}
		equalCOO(t, sortedClone(coo), got)

		path := filepath.Join(dir, ShardFileName(0))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[1<<16+5] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.LoadShard(0); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
			t.Fatalf("dims %v: corrupt payload loaded, err = %v", dims, err)
		}
		if err := os.WriteFile(path, raw[:len(raw)-8], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.LoadShard(0); err == nil || !strings.Contains(err.Error(), "torn write") {
			t.Fatalf("dims %v: short payload loaded, err = %v", dims, err)
		}
	}
}
