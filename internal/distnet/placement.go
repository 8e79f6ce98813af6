package distnet

import (
	"fmt"

	"aoadmm/internal/dist"
	"aoadmm/internal/ooc"
)

// Placement policies: how the coordinator carves the mode-0 dimension into
// per-worker ranges. Every policy yields contiguous half-open ranges that
// partition [0, Dims[0]) in slot order, the shape runEpoch and the
// checkpointed restart path expect.
const (
	// PlacementEven splits mode-0 rows into near-equal ranges — exactly
	// dist.Partition, the split every other mode uses too.
	PlacementEven = "even"
	// PlacementShards balances non-zeros instead of rows: workers receive
	// contiguous runs of whole .aoshard shards with near-equal total NNZ, so
	// the shard is the unit of transfer (no boundary shard is split between
	// workers) and skewed tensors load-balance.
	PlacementShards = "shards"
)

// place computes the per-worker mode-0 ranges for a sharded tensor.
func place(st *ooc.ShardedTensor, workers int, policy string) ([][2]int, error) {
	switch policy {
	case "", PlacementEven:
		return dist.Partition(st.Dims()[0], workers), nil
	case PlacementShards:
		return shardRanges(st, workers), nil
	default:
		return nil, fmt.Errorf("distnet: unknown placement policy %q (want %q or %q)",
			policy, PlacementEven, PlacementShards)
	}
}

// shardRanges assigns each worker a contiguous run of whole shards,
// greedily cutting at the shard boundary nearest each cumulative-NNZ
// quantile. Range boundaries are the Lo of the next run's first shard (or
// the dimension end), so the ranges partition [0, Dims[0]) even when shard
// [Lo, Hi) spans have gaps of empty rows between them. Workers beyond the
// shard count receive empty tail ranges.
func shardRanges(st *ooc.ShardedTensor, workers int) [][2]int {
	dim := st.Dims()[0]
	total := st.NNZ()
	nShards := st.NumShards()
	ranges := make([][2]int, workers)
	si := 0
	var assigned int64
	begin := 0
	for w := 0; w < workers; w++ {
		target := total * int64(w+1) / int64(workers)
		for si < nShards && (assigned < target || w == workers-1) {
			assigned += st.Shard(si).NNZ
			si++
		}
		end := dim
		if si < nShards {
			end = int(st.Shard(si).Lo)
		}
		if end < begin {
			end = begin
		}
		ranges[w] = [2]int{begin, end}
		begin = end
	}
	ranges[workers-1][1] = dim
	return ranges
}
