package ooc

import (
	"testing"

	"aoadmm/internal/tensor"
)

// BenchmarkLoadShardALTO loads one key-ordered (version 2) shard of about
// 1 MiB per iteration, as LoadShard returns it (a COO) and as the stream
// feeds it to the kernel (an ALTO tensor); run with -benchmem to see what a
// load allocates beyond the decoded keys and values.
func BenchmarkLoadShardALTO(b *testing.B) {
	coo, err := tensor.Uniform(tensor.GenOptions{Dims: []int{400, 300, 200}, NNZ: 200000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	st, err := ConvertCOO(coo, b.TempDir(), ConvertOptions{TargetShardBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if st.Version() != VersionALTO {
		b.Fatalf("store version %d, want %d", st.Version(), VersionALTO)
	}
	b.Run("LoadShard", func(b *testing.B) {
		b.SetBytes(st.h.shardPayloadBytes(st.Shard(0).NNZ))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st.LoadShard(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(st.h.shardPayloadBytes(st.Shard(0).NNZ))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st.loadALTO(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
