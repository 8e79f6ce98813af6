package distnet

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"aoadmm/internal/core"
	"aoadmm/internal/dist"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/ooc"
	"aoadmm/internal/prox"
	"aoadmm/internal/stats"
	"aoadmm/internal/tensor"
)

func startCluster(t *testing.T, n int) *LocalCluster {
	return startClusterFormat(t, n, "")
}

func startClusterFormat(t *testing.T, n int, kernelFormat string) *LocalCluster {
	t.Helper()
	c, err := StartLocal(n,
		Config{HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 2 * time.Second},
		WorkerConfig{RetryInterval: 50 * time.Millisecond, KernelFormat: kernelFormat})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// shardStore converts a tensor into a .aoshard directory under the test's
// temp dir and returns the opened store.
func shardStore(t *testing.T, x *tensor.COO, targetShardBytes int64) *ooc.ShardedTensor {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "x.aoshard")
	st, err := ooc.ConvertCOO(x, dir, ooc.ConvertOptions{TargetShardBytes: targetShardBytes})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func planted(t *testing.T, dims []int, nnz int, seed int64) *tensor.COO {
	t.Helper()
	x, _, err := tensor.PlantedLowRank(tensor.GenOptions{
		Dims: dims, NNZ: nnz, Rank: 3, Seed: seed, NoiseStd: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestNetworkedDeterministicVsReference pins the engine bit for bit: a
// failure-free job over real TCP must reproduce every factor entry, the
// relative error and the CommStats of the test-local reference loop, at 1,
// 2 and 3 workers under both placements, with the inner-ADMM phase moving
// exactly zero bytes. At one worker it must also reproduce the
// shared-memory solver (core.Factorize, Threads 1). Beyond one worker core
// is no bitwise oracle: every node's partial MTTKRP is summed on its own
// before the reduction, so factors differ from core's in the last bits.
func TestNetworkedDeterministicVsReference(t *testing.T) {
	x := planted(t, []int{60, 90, 120}, 6000, 11)
	st := shardStore(t, x, 8<<10) // small shards so the shard placement cuts are real
	if st.NumShards() < 3 {
		t.Fatalf("want >= 3 shards for a meaningful test, got %d", st.NumShards())
	}
	// The canonical non-zero set is what came back out of the store: the
	// reference, core and the networked engine all factorize it.
	canon, err := st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	const rank, iters, blockSize = 4, 6, 10
	seed := int64(7)
	nonneg := prox.NonNegative{}
	core1, err := core.Factorize(canon.Clone(), core.Options{
		Rank: rank, Seed: seed, MaxOuterIters: iters, BlockSize: blockSize,
		Constraints: []prox.Operator{nonneg},
		Variant:     core.Blocked, Threads: 1, Tol: 1e-300,
	})
	if err != nil {
		t.Fatal(err)
	}

	c := startCluster(t, 3)
	for _, placement := range []string{PlacementEven, PlacementShards} {
		for n := 1; n <= 3; n++ {
			t.Run(fmt.Sprintf("%s/workers=%d", placement, n), func(t *testing.T) {
				mode0, err := place(st, n, placement)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceRun(canon, mode0, rank, iters, blockSize,
					[]prox.Operator{nonneg, nonneg, nonneg}, seed)
				got, err := c.Coord.RunJob(JobOptions{
					JobID: "parity", ShardDir: st.Dir(), Rank: rank, Constraint: "nonneg",
					MaxOuterIters: iters, BlockSize: blockSize, Seed: seed,
					Workers: n, WaitForWorkers: n, Placement: placement,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got.Epochs != 1 || got.Reassignments != 0 || got.Workers != n {
					t.Fatalf("failure-free run: epochs=%d reassignments=%d workers=%d",
						got.Epochs, got.Reassignments, got.Workers)
				}
				assertSameBits(t, "reference", got.Factors, got.RelErr, want.Factors, want.RelErr)
				if n == 1 {
					assertSameBits(t, "core.Factorize", got.Factors, got.RelErr, core1.Factors, core1.RelErr)
				}
				if got.Comm != want.Comm {
					t.Fatalf("networked comm %+v != reference %+v", got.Comm, want.Comm)
				}
				if got.Comm.ADMMBytes != 0 {
					t.Fatalf("inner ADMM moved %d bytes", got.Comm.ADMMBytes)
				}
				if got.WireBytesSent == 0 || got.WireBytesReceived == 0 {
					t.Fatal("no physical wire traffic accounted")
				}
			})
		}
	}
}

// assertSameBits fails unless both fits carry identical float64 bits in
// every factor entry and in the relative error.
func assertSameBits(t *testing.T, what string, got *kruskal.Tensor, gotErr float64, want *kruskal.Tensor, wantErr float64) {
	t.Helper()
	if math.Float64bits(gotErr) != math.Float64bits(wantErr) {
		t.Fatalf("relerr %v != %s %v", gotErr, what, wantErr)
	}
	for m, f := range want.Factors {
		g := got.Factors[m]
		if g.Rows != f.Rows || g.Cols != f.Cols {
			t.Fatalf("mode %d: shape %dx%d != %s %dx%d", m, g.Rows, g.Cols, what, f.Rows, f.Cols)
		}
		for i, v := range f.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(v) {
				t.Fatalf("mode %d entry %d: %v != %s %v", m, i, g.Data[i], what, v)
			}
		}
	}
}

// TestSplitByMode0 checks the reference loop's non-zero placement.
func TestSplitByMode0(t *testing.T) {
	x := tensor.NewCOO([]int{4, 3}, 4)
	x.Append([]int{0, 0}, 1)
	x.Append([]int{1, 1}, 2)
	x.Append([]int{2, 2}, 3)
	x.Append([]int{3, 0}, 4)
	parts := splitByMode0(x, dist.Partition(4, 2))
	if parts[0].NNZ() != 2 || parts[1].NNZ() != 2 {
		t.Fatalf("split sizes %d/%d", parts[0].NNZ(), parts[1].NNZ())
	}
	for p := 0; p < parts[0].NNZ(); p++ {
		if parts[0].Inds[0][p] >= 2 {
			t.Fatal("node 0 received a foreign slice")
		}
	}
}

// TestALTOWorkersMatchCSF runs the same job on a CSF-kernel cluster and an
// ALTO-kernel cluster. The two kernels accumulate partial products in
// different floating-point orders, so the fits agree to solver tolerance
// rather than bit-for-bit — the guarantee mixed-format clusters rely on.
func TestALTOWorkersMatchCSF(t *testing.T) {
	x := planted(t, []int{60, 90, 120}, 5000, 17)
	st := shardStore(t, x, 0)

	const workers, rank, iters, blockSize = 3, 4, 6, 10
	opts := JobOptions{
		JobID: "fmt-parity", ShardDir: st.Dir(), Rank: rank, Constraint: "nonneg",
		MaxOuterIters: iters, BlockSize: blockSize, Seed: 9,
		Workers: workers, WaitForWorkers: workers,
	}

	cCSF := startClusterFormat(t, workers, "csf")
	refRes, err := cCSF.Coord.RunJob(opts)
	if err != nil {
		t.Fatal(err)
	}

	cALTO := startClusterFormat(t, workers, "alto")
	altoRes, err := cALTO.Coord.RunJob(opts)
	if err != nil {
		t.Fatal(err)
	}

	if math.Abs(altoRes.RelErr-refRes.RelErr) > 1e-6 {
		t.Fatalf("alto-kernel relerr %v vs csf %v", altoRes.RelErr, refRes.RelErr)
	}
	// The kernel choice is worker-local: the priced communication schedule
	// must be identical.
	if altoRes.Comm != refRes.Comm {
		t.Fatalf("alto comm %+v != csf comm %+v", altoRes.Comm, refRes.Comm)
	}
}

// TestWorkerFailureRecovers kills one worker mid-job and requires the
// coordinator to reassign its shard range and warm-restart from the last
// checkpoint, finishing with the same fit as an uninterrupted run (worker
// spans stay block-aligned before and after the failure, so recovery does
// not change the arithmetic).
func TestWorkerFailureRecovers(t *testing.T) {
	x := planted(t, []int{60, 90, 120}, 4000, 23)
	st := shardStore(t, x, 0)

	const rank, iters, blockSize = 3, 8, 5
	opts := JobOptions{
		JobID: "chaos", Rank: rank, ShardDir: st.Dir(), Constraint: "nonneg",
		MaxOuterIters: iters, BlockSize: blockSize, Seed: 9,
		Workers: 3, WaitForWorkers: 3,
	}

	ref := startCluster(t, 3)
	want, err := ref.Coord.RunJob(opts)
	if err != nil {
		t.Fatal(err)
	}

	c := startCluster(t, 3)
	kopts := opts
	kopts.CheckpointDir = filepath.Join(t.TempDir(), "ckpt")
	kopts.CheckpointEvery = 1
	var once sync.Once
	kopts.OnIteration = func(p stats.TracePoint) bool {
		if p.Iteration == 2 {
			once.Do(func() { c.Workers[2].Close() })
		}
		return true
	}
	got, err := c.Coord.RunJob(kopts)
	if err != nil {
		t.Fatal(err)
	}

	if got.Reassignments < 1 || got.Epochs < 2 {
		t.Fatalf("no recovery happened: epochs=%d reassignments=%d", got.Epochs, got.Reassignments)
	}
	if got.OuterIters != iters {
		t.Fatalf("resumed job ran %d iterations, want %d", got.OuterIters, iters)
	}
	if math.Abs(got.RelErr-want.RelErr) > 1e-9 {
		t.Fatalf("recovered relerr %v vs uninterrupted %v", got.RelErr, want.RelErr)
	}
	if s := c.Coord.Stats(); s.Reassignments < 1 || s.WorkersLive != 2 {
		t.Fatalf("coordinator stats after recovery: %+v", s)
	}
}

// TestJobSerializationAndReuse runs two jobs back to back over the same
// connections: workers must drop the first job's state on Done and serve
// the second identically.
func TestJobSerializationAndReuse(t *testing.T) {
	x := planted(t, []int{40, 40, 40}, 2000, 3)
	st := shardStore(t, x, 0)
	c := startCluster(t, 2)
	opts := JobOptions{
		ShardDir: st.Dir(), Rank: 3, MaxOuterIters: 3, BlockSize: 10, Seed: 1,
		Workers: 2, WaitForWorkers: 2,
	}
	a, err := c.Coord.RunJob(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Coord.RunJob(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.RelErr != b.RelErr || a.Comm != b.Comm {
		t.Fatalf("second job diverged: %v/%v, %+v/%+v", a.RelErr, b.RelErr, a.Comm, b.Comm)
	}
	if s := c.Coord.Stats(); s.JobsTotal != 2 {
		t.Fatalf("jobs total %d", s.JobsTotal)
	}
}

// TestCancellation stops a job via context and reports Stopped.
func TestCancellation(t *testing.T) {
	x := planted(t, []int{40, 40, 40}, 2000, 3)
	st := shardStore(t, x, 0)
	c := startCluster(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	res, err := c.Coord.RunJob(JobOptions{
		ShardDir: st.Dir(), Rank: 3, MaxOuterIters: 500, BlockSize: 10,
		Workers: 2, WaitForWorkers: 2, Ctx: ctx,
		OnIteration: func(p stats.TracePoint) bool {
			if p.Iteration == 2 {
				cancel()
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.OuterIters >= 500 {
		t.Fatalf("cancellation ignored: stopped=%v iters=%d", res.Stopped, res.OuterIters)
	}
}

// TestPlacementShardsPartition checks the nnz-balanced placement always
// yields a partition of [0, Dims[0]) whatever the worker count.
func TestPlacementShardsPartition(t *testing.T) {
	x := planted(t, []int{50, 30, 20}, 3000, 2)
	st := shardStore(t, x, 4<<10)
	for _, n := range []int{1, 2, 3, 5, 8, 100} {
		ranges := shardRanges(st, n)
		if len(ranges) != n {
			t.Fatalf("n=%d: %d ranges", n, len(ranges))
		}
		prev := 0
		for i, r := range ranges {
			if r[0] != prev || r[1] < r[0] {
				t.Fatalf("n=%d: range %d = %v breaks the partition at %d", n, i, r, prev)
			}
			prev = r[1]
		}
		if prev != st.Dims()[0] {
			t.Fatalf("n=%d: ranges end at %d, want %d", n, prev, st.Dims()[0])
		}
	}
}
