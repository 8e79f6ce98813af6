// The node-local steps and pricing rules of this package run inside the
// networked engine (internal/distnet); the §IV-B properties they implement
// are checked end to end on that engine, over loopback TCP.
package dist_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aoadmm/internal/core"
	"aoadmm/internal/dist"
	"aoadmm/internal/distnet"
	"aoadmm/internal/ooc"
	"aoadmm/internal/prox"
	"aoadmm/internal/tensor"
)

// alignedTensor builds a tensor whose mode lengths are divisible by
// nodes*blockSize for nodes in {1, 2, 4} and blockSize 20, so node
// boundaries always fall on block boundaries and every node's ADMM block
// grid matches the shared-memory one.
func alignedTensor(t *testing.T) *tensor.COO {
	t.Helper()
	x, _, err := tensor.PlantedLowRank(tensor.GenOptions{
		Dims: []int{80, 160, 240}, NNZ: 5000, Rank: 3, Seed: 140, NoiseStd: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// engine is a shard store of one tensor plus a loopback cluster to run
// jobs on it.
type engine struct {
	st *ooc.ShardedTensor
	c  *distnet.LocalCluster
}

// startEngine converts x into a shard store and starts maxNodes workers;
// each job picks how many of them it spreads over.
func startEngine(t *testing.T, x *tensor.COO, maxNodes int) *engine {
	t.Helper()
	st, err := ooc.ConvertCOO(x, filepath.Join(t.TempDir(), "x.aoshard"), ooc.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := distnet.StartLocal(maxNodes,
		distnet.Config{HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 2 * time.Second},
		distnet.WorkerConfig{RetryInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return &engine{st: st, c: c}
}

// run factorizes the store on nodes workers.
func (e *engine) run(t *testing.T, nodes int, opts distnet.JobOptions) *distnet.JobResult {
	t.Helper()
	opts.ShardDir = e.st.Dir()
	opts.Workers, opts.WaitForWorkers = nodes, nodes
	res, err := e.c.Coord.RunJob(opts)
	if err != nil {
		t.Fatalf("nodes=%d: %v", nodes, err)
	}
	return res
}

func TestSingleNodeMatchesSharedMemoryExactly(t *testing.T) {
	e := startEngine(t, alignedTensor(t), 1)
	d := e.run(t, 1, distnet.JobOptions{
		Rank: 5, Seed: 1, MaxOuterIters: 8, BlockSize: 20, Constraint: "nonneg",
	})
	// core reads the store's canonical entry order, as the worker does.
	canon, err := e.st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Factorize(canon, core.Options{
		Rank: 5, Seed: 1, MaxOuterIters: 8, BlockSize: 20,
		Constraints: []prox.Operator{prox.NonNegative{}},
		Variant:     core.Blocked, Threads: 1, Tol: 1e-300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(d.RelErr) != math.Float64bits(s.RelErr) {
		t.Fatalf("1-node distributed %v != shared-memory %v", d.RelErr, s.RelErr)
	}
	for m, f := range s.Factors.Factors {
		for i, v := range f.Data {
			if math.Float64bits(d.Factors.Factors[m].Data[i]) != math.Float64bits(v) {
				t.Fatalf("mode %d entry %d: %v != shared-memory %v", m, i, d.Factors.Factors[m].Data[i], v)
			}
		}
	}
	if d.Comm.MTTKRPBytes != 0 || d.Comm.FactorBytes != 0 {
		t.Fatalf("1 node must not communicate: %+v", d.Comm)
	}
}

func TestMultiNodeMatchesSingleNode(t *testing.T) {
	// Node boundaries at multiples of the block size keep the ADMM block
	// grids identical, so the node count changes only the order in which
	// MTTKRP partials are summed: the fit agrees to round-off.
	e := startEngine(t, alignedTensor(t), 4)
	opts := distnet.JobOptions{Rank: 5, Seed: 1, MaxOuterIters: 6, BlockSize: 20, Constraint: "nonneg"}
	one := e.run(t, 1, opts)
	for _, n := range []int{2, 4} {
		multi := e.run(t, n, opts)
		if math.Abs(multi.RelErr-one.RelErr) > 1e-12 {
			t.Fatalf("nodes=%d: relerr %v != %v", n, multi.RelErr, one.RelErr)
		}
	}
}

func TestADMMPhaseIsCommunicationFree(t *testing.T) {
	// The paper's §IV-B claim: blocked ADMM needs no communication beyond
	// MTTKRP. The engine prices ADMM-phase traffic explicitly.
	e := startEngine(t, alignedTensor(t), 4)
	res := e.run(t, 4, distnet.JobOptions{Rank: 5, Seed: 1, MaxOuterIters: 5, Constraint: "nonneg"})
	if res.Comm.ADMMBytes != 0 {
		t.Fatalf("blocked ADMM communicated %d bytes", res.Comm.ADMMBytes)
	}
	if res.Comm.MTTKRPBytes == 0 || res.Comm.FactorBytes == 0 {
		t.Fatalf("expected MTTKRP/factor traffic with 4 nodes: %+v", res.Comm)
	}
	// What the baseline would have paid instead.
	if base := dist.BaselineADMMCommBytes(4, 3, res.OuterIters, 10); base <= 0 {
		t.Fatalf("baseline comm estimate %d", base)
	}
}

func TestCommGrowsWithNodes(t *testing.T) {
	e := startEngine(t, alignedTensor(t), 4)
	var prev int64 = -1
	for _, n := range []int{1, 2, 4} {
		res := e.run(t, n, distnet.JobOptions{Rank: 4, Seed: 1, MaxOuterIters: 3})
		if res.Comm.Total() <= prev {
			t.Fatalf("comm did not grow: nodes=%d total=%d prev=%d", n, res.Comm.Total(), prev)
		}
		prev = res.Comm.Total()
	}
}

func TestPartition(t *testing.T) {
	p := dist.Partition(10, 3)
	if p[0] != [2]int{0, 4} || p[1] != [2]int{4, 7} || p[2] != [2]int{7, 10} {
		t.Fatalf("partition = %v", p)
	}
	p = dist.Partition(2, 4)
	total := 0
	for _, span := range p {
		if span[1] < span[0] {
			t.Fatalf("negative span %v", span)
		}
		total += span[1] - span[0]
	}
	if total != 2 {
		t.Fatalf("partition lost rows: %v", p)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := distnet.StartLocal(0, distnet.Config{}, distnet.WorkerConfig{}); err == nil {
		t.Fatal("0 workers accepted")
	}
	e := startEngine(t, alignedTensor(t), 1)
	if _, err := e.c.Coord.RunJob(distnet.JobOptions{ShardDir: e.st.Dir(), Rank: 0}); err == nil {
		t.Fatal("Rank=0 accepted")
	}
	if _, err := e.c.Coord.RunJob(distnet.JobOptions{
		ShardDir: e.st.Dir(), Rank: 2, Constraint: "nonneg;nonneg",
	}); err == nil {
		t.Fatal("wrong constraint count accepted")
	}
	_, err := ooc.ConvertCOO(tensor.NewCOO([]int{2, 2}, 0), filepath.Join(t.TempDir(), "empty.aoshard"), ooc.ConvertOptions{})
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty tensor: err = %v", err)
	}
}

func TestTolStopsEarly(t *testing.T) {
	e := startEngine(t, alignedTensor(t), 2)
	res := e.run(t, 2, distnet.JobOptions{Rank: 5, Seed: 1, MaxOuterIters: 40, BlockSize: 20, Tol: 0.5})
	if !res.Converged || res.OuterIters >= 40 {
		t.Fatalf("loose Tol did not stop early: converged=%v iters=%d", res.Converged, res.OuterIters)
	}
}

func TestBaselineADMMCommBytes(t *testing.T) {
	if dist.BaselineADMMCommBytes(1, 3, 10, 10) != 0 {
		t.Fatal("single node must be zero")
	}
	b2 := dist.BaselineADMMCommBytes(2, 3, 10, 10)
	b8 := dist.BaselineADMMCommBytes(8, 3, 10, 10)
	if b2 <= 0 || b8 <= b2 {
		t.Fatalf("comm estimates: n=2 %d, n=8 %d", b2, b8)
	}
}

func TestMoreNodesThanRows(t *testing.T) {
	x := tensor.NewCOO([]int{3, 50, 50}, 3)
	x.Append([]int{0, 1, 2}, 1)
	x.Append([]int{1, 10, 20}, 2)
	x.Append([]int{2, 30, 40}, 3)
	e := startEngine(t, x, 8)
	if res := e.run(t, 8, distnet.JobOptions{Rank: 2, MaxOuterIters: 2}); res.OuterIters != 2 {
		t.Fatalf("iterations %d", res.OuterIters)
	}
}
