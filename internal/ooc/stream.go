package ooc

import (
	"fmt"
	"sync/atomic"
	"time"

	"aoadmm/internal/alto"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/obs"
	"aoadmm/internal/perfmodel"
	"aoadmm/internal/tensor"
)

// StreamStats accumulates shard I/O and pipeline counters across streaming
// MTTKRP calls. All fields are updated atomically, so one StreamStats may be
// shared across an entire factorization and read concurrently (the daemon's
// /metrics endpoint does).
type StreamStats struct {
	// ShardLoads counts shard files read and decoded.
	ShardLoads int64
	// BytesRead counts shard payload bytes read from disk.
	BytesRead int64
	// PrefetchStalls counts consumer waits on a shard that was not yet
	// prefetched — the signal that I/O, not compute, bounds the pipeline.
	PrefetchStalls int64
	// StallNanos is the total time spent in those waits.
	StallNanos int64
	// PeakBytes is the high-water mark of tracked resident bytes: the
	// MemoryBytes of loaded ALTO shards, or for VersionColumns stores the COO
	// footprint of loaded shards (admission-estimator accounting) plus the
	// actual MemoryBytes of the CSF tree currently compiled from one.
	PeakBytes int64

	// ShardKernels counts shard kernel runs by kernel: "alto" for
	// VersionALTO shards, "csf" for VersionColumns ones. Populated on
	// Snapshot copies only; live counts are kept in atomic fields.
	ShardKernels map[string]int64

	// Trace optionally records shard-pipeline spans (shard_load on the
	// prefetcher's ring, shard_compute and prefetch_stall on the driver's);
	// nil disables tracing. Not part of Snapshot.
	Trace *obs.Tracer

	resident  int64
	shardCSF  int64
	shardALTO int64
}

// tracer is the nil-StreamStats-safe accessor for Trace.
func (st *StreamStats) tracer() *obs.Tracer {
	if st == nil {
		return nil
	}
	return st.Trace
}

func (st *StreamStats) grow(n int64) {
	if st == nil {
		return
	}
	r := atomic.AddInt64(&st.resident, n)
	for {
		p := atomic.LoadInt64(&st.PeakBytes)
		if r <= p || atomic.CompareAndSwapInt64(&st.PeakBytes, p, r) {
			return
		}
	}
}

func (st *StreamStats) shrink(n int64) {
	if st == nil {
		return
	}
	atomic.AddInt64(&st.resident, -n)
}

func (st *StreamStats) countLoad(bytes int64) {
	if st == nil {
		return
	}
	atomic.AddInt64(&st.ShardLoads, 1)
	atomic.AddInt64(&st.BytesRead, bytes)
}

func (st *StreamStats) countStall(d time.Duration) {
	if st == nil {
		return
	}
	atomic.AddInt64(&st.PrefetchStalls, 1)
	atomic.AddInt64(&st.StallNanos, int64(d))
}

func (st *StreamStats) countKernel(format string) {
	if st == nil {
		return
	}
	if format == "alto" {
		atomic.AddInt64(&st.shardALTO, 1)
	} else {
		atomic.AddInt64(&st.shardCSF, 1)
	}
}

// Snapshot returns a torn-read-safe copy of the counters.
func (st *StreamStats) Snapshot() StreamStats {
	if st == nil {
		return StreamStats{}
	}
	snap := StreamStats{
		ShardLoads:     atomic.LoadInt64(&st.ShardLoads),
		BytesRead:      atomic.LoadInt64(&st.BytesRead),
		PrefetchStalls: atomic.LoadInt64(&st.PrefetchStalls),
		StallNanos:     atomic.LoadInt64(&st.StallNanos),
		PeakBytes:      atomic.LoadInt64(&st.PeakBytes),
	}
	csf, alto := atomic.LoadInt64(&st.shardCSF), atomic.LoadInt64(&st.shardALTO)
	if csf > 0 || alto > 0 {
		snap.ShardKernels = make(map[string]int64, 2)
		if csf > 0 {
			snap.ShardKernels["csf"] = csf
		}
		if alto > 0 {
			snap.ShardKernels["alto"] = alto
		}
	}
	return snap
}

// prefetched is one shard loaded ahead of the consumer, paired with its
// tracked byte count: an ALTO tensor for a VersionALTO store, a COO for a
// VersionColumns one.
type prefetched struct {
	idx   int
	alto  *alto.Tensor
	coo   *tensor.COO
	bytes int64
	err   error
}

// MTTKRP computes the full matricized-tensor-times-Khatri-Rao product for
// one mode by streaming shards, each through the kernel the store's payload
// version selects (see MTTKRPKernel).
func (s *ShardedTensor) MTTKRP(mode int, factors []*dense.Matrix, out, scratch *dense.Matrix, mo mttkrp.Options, st *StreamStats) error {
	return s.MTTKRPKernel("csf", mode, factors, out, scratch, mo, st)
}

// MTTKRPKernel computes the full matricized-tensor-times-Khatri-Rao product
// for one mode by streaming shards: load shard i (prefetched on a background
// goroutine while shard i-1 computes), run its kernel, and accumulate into
// out, which must be Dims()[mode] x rank and is overwritten. At most two
// loaded shards are resident (double buffering); the high-water mark is
// recorded in st.PeakBytes.
//
// The store's payload version picks the per-shard kernel, not format:
// VersionALTO shards are already in ALTO key order, so each one is added
// into out by the ALTO kernel with no build step; VersionColumns shards
// compile a CSF tree rooted at mode, whose product lands in scratch
// (Dims()[mode] x rank; nil allocates one) and is added into out. format is
// still checked against the engine names, and unknown ones fail loudly.
// st.ShardKernels counts the loads by kernel.
func (s *ShardedTensor) MTTKRPKernel(format string, mode int, factors []*dense.Matrix, out, scratch *dense.Matrix, mo mttkrp.Options, st *StreamStats) error {
	if mode < 0 || mode >= s.Order() {
		return fmt.Errorf("ooc: mode %d out of range [0, %d)", mode, s.Order())
	}
	if err := perfmodel.CheckKernelFormat(format); err != nil {
		return fmt.Errorf("ooc: %w", err)
	}
	order := s.Order()

	// Producer: load shards in order, handing each across an unbuffered
	// channel. While the consumer computes shard i, the producer is loading
	// shard i+1 and then blocks on the send — exactly two resident shards.
	ch := make(chan prefetched)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		defer close(ch)
		for i := 0; i < s.NumShards(); i++ {
			read := s.h.shardPayloadBytes(s.Shard(i).NNZ)
			loadSpan := st.tracer().Begin("ooc", "shard_load", mode, obs.TIDAux, int64(i))
			p := prefetched{idx: i, bytes: read}
			if s.layout != nil {
				p.alto, p.err = s.loadALTO(i)
				if p.err == nil {
					p.bytes = p.alto.MemoryBytes()
				}
			} else {
				p.coo, p.err = s.LoadShard(i)
			}
			loadSpan.End()
			if p.err == nil {
				st.grow(p.bytes)
				st.countLoad(read)
			}
			select {
			case ch <- p:
			case <-stop:
				if p.err == nil {
					st.shrink(p.bytes)
				}
				return
			}
		}
	}()

	out.Zero()
	for {
		begin := time.Now()
		p, ok := <-ch
		if !ok {
			break
		}
		if wait := time.Since(begin); wait > 50*time.Microsecond {
			st.countStall(wait)
			st.tracer().Emit("ooc", "prefetch_stall", mode, obs.TIDDriver, int64(p.idx), begin, wait)
		}
		if p.err != nil {
			return p.err
		}

		computeSpan := st.tracer().Begin("ooc", "shard_compute", mode, obs.TIDDriver, int64(p.idx))
		if p.alto != nil {
			st.countKernel(perfmodel.FormatALTO)
			p.alto.AddMTTKRP(mode, factors, out, mo)
		} else {
			// The shard COO is owned by this call, so the CSF build may sort
			// it in place — no defensive clone.
			tree := csf.Build(p.coo, csf.DefaultPerm(order, mode))
			treeBytes := int64(tree.MemoryBytes())
			st.grow(treeBytes)
			st.countKernel(perfmodel.FormatCSF)
			if scratch == nil {
				scratch = dense.New(out.Rows, out.Cols)
			}
			mttkrp.Compute(tree, factors, scratch, nil, mo)
			dense.AXPY(out, 1, scratch)
			st.shrink(treeBytes)
		}
		st.shrink(p.bytes)
		computeSpan.End()
	}
	return nil
}
