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
	// PeakBytes is the high-water mark of tracked resident bytes: the COO
	// footprint of loaded shards (admission-estimator accounting) plus the
	// actual MemoryBytes of the CSF tree currently compiled from one.
	PeakBytes int64

	// ShardKernels counts shard kernel compilations by format ("csf",
	// "alto"): with format "auto" each shard picks its own backend, so the
	// histogram reveals the per-shard decisions. Populated on Snapshot
	// copies only; live counts are kept in atomic fields.
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
// tracked byte count.
type prefetched struct {
	idx   int
	coo   *tensor.COO
	bytes int64
	err   error
}

// MTTKRP computes the full matricized-tensor-times-Khatri-Rao product for
// one mode by streaming shards with the CSF kernel. It is shorthand for
// MTTKRPKernel with format "csf".
func (s *ShardedTensor) MTTKRP(mode int, factors []*dense.Matrix, out, scratch *dense.Matrix, mo mttkrp.Options, st *StreamStats) error {
	return s.MTTKRPKernel("csf", mode, factors, out, scratch, mo, st)
}

// MTTKRPKernel computes the full matricized-tensor-times-Khatri-Rao product
// for one mode by streaming shards: load shard i (prefetched on a background
// goroutine while shard i-1 computes), compile its kernel structure, run the
// in-memory kernel for its partial product into scratch, and accumulate into
// out. At most two shard COOs are resident (double buffering) plus one
// compiled structure; the high-water mark is recorded in st.PeakBytes.
//
// format selects the per-shard kernel: "" or "csf" compiles a CSF tree
// rooted at the target mode, "alto" compiles a linearized ALTO tensor, and
// "auto" lets the perfmodel cost model choose per shard — shards with
// different sparsity structure may legitimately pick different backends
// within one call (the decisions land in st.ShardKernels). Unknown formats
// fail loudly.
//
// out and scratch must both be Dims()[mode] x rank. The existing kernels are
// reused unchanged: both zero their output, so partials land in scratch and
// are AXPY-accumulated.
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
			bytes := shardPayloadBytes(order, s.Shard(i).NNZ)
			loadSpan := st.tracer().Begin("ooc", "shard_load", mode, obs.TIDAux, int64(i))
			coo, err := s.LoadShard(i)
			loadSpan.End()
			if err == nil {
				st.grow(bytes)
				st.countLoad(bytes)
			}
			select {
			case ch <- prefetched{idx: i, coo: coo, bytes: bytes, err: err}:
			case <-stop:
				if err == nil {
					st.shrink(bytes)
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

		// Resolve the format per shard: under "auto" different shards of
		// one tensor can have very different fiber structure, so each gets
		// its own cost-model decision. The name was checked above.
		shardFormat, _ := perfmodel.ResolveKernelFormat(format, p.coo, out.Cols, mo.Threads)

		// Compile this shard's kernel structure. The shard COO is owned by
		// this call, so the CSF build may sort it in place — no defensive
		// clone (the ALTO build never mutates its input).
		var kernelErr error
		switch shardFormat {
		case perfmodel.FormatALTO:
			at, err := alto.Build(p.coo, alto.Options{})
			if err != nil {
				kernelErr = fmt.Errorf("ooc: shard %d alto build: %w", p.idx, err)
				break
			}
			altoBytes := int64(at.MemoryBytes())
			st.grow(altoBytes)
			st.countKernel("alto")
			at.MTTKRP(mode, factors, scratch, mo)
			dense.AXPY(out, 1, scratch)
			st.shrink(altoBytes)
		default: // perfmodel.FormatCSF
			tree := csf.Build(p.coo, csf.DefaultPerm(order, mode))
			treeBytes := int64(tree.MemoryBytes())
			st.grow(treeBytes)
			st.countKernel("csf")
			mttkrp.Compute(tree, factors, scratch, nil, mo)
			dense.AXPY(out, 1, scratch)
			st.shrink(treeBytes)
		}

		st.shrink(p.bytes)
		computeSpan.End()
		if kernelErr != nil {
			return kernelErr
		}
	}
	return nil
}
