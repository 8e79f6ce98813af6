package ooc

import (
	"fmt"

	"aoadmm/internal/tensor"
)

// ShardsInRange returns the indices of shards whose mode-0 range intersects
// the half-open row range [lo, hi). Shards partition [0, Dims[0]) in
// ascending order, so the result is a contiguous run of shard indices.
func (s *ShardedTensor) ShardsInRange(lo, hi int) []int {
	var out []int
	for i, sh := range s.h.Shards {
		if sh.Hi <= int64(lo) {
			continue
		}
		if sh.Lo >= int64(hi) {
			break
		}
		out = append(out, i)
	}
	return out
}

// LoadRange streams every shard overlapping [lo, hi) through LoadShard and
// returns the non-zeros whose mode-0 index falls inside the range, with full
// global dims, each shard's in its stored order (see LoadShard). This is the distributed engine's shard handoff: a worker
// assigned the mode-0 range [lo, hi) pulls exactly the shards that cover it
// and keeps only its slice of any boundary shard. The second return is the
// total payload bytes read (boundary shards are read whole), for transfer
// accounting.
func (s *ShardedTensor) LoadRange(lo, hi int) (*tensor.COO, int64, error) {
	if lo < 0 || hi > s.h.Dims[0] || lo > hi {
		return nil, 0, fmt.Errorf("ooc: range [%d, %d) outside [0, %d)", lo, hi, s.h.Dims[0])
	}
	out := tensor.NewCOO(s.h.Dims, 0)
	var bytesRead int64
	for _, i := range s.ShardsInRange(lo, hi) {
		info := s.h.Shards[i]
		part, err := s.LoadShard(i)
		if err != nil {
			return nil, bytesRead, err
		}
		bytesRead += s.h.shardPayloadBytes(info.NNZ)
		if int64(lo) <= info.Lo && info.Hi <= int64(hi) {
			// Interior shard: every non-zero belongs to the range.
			for m := range out.Inds {
				out.Inds[m] = append(out.Inds[m], part.Inds[m]...)
			}
			out.Vals = append(out.Vals, part.Vals...)
			continue
		}
		// Boundary shard: keep only the in-range non-zeros, in stored order.
		for p, r := range part.Inds[0] {
			if int(r) < lo || int(r) >= hi {
				continue
			}
			for m := range out.Inds {
				out.Inds[m] = append(out.Inds[m], part.Inds[m][p])
			}
			out.Vals = append(out.Vals, part.Vals[p])
		}
	}
	return out, bytesRead, nil
}
