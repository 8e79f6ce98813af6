package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"aoadmm"
	"aoadmm/internal/dist"
	"aoadmm/internal/distnet"
	"aoadmm/internal/obs"
	"aoadmm/internal/stats"
)

// distWorkers is the worker count of dist-reddit; each runs single-threaded
// ADMM, so coordinator plus workers fit the two-core host.
const distWorkers = 2

// heartbeatInterval paces worker heartbeats, which carry the per-worker
// telemetry the benchmark reads; a short interval lets the counters catch up
// soon after each job.
const heartbeatInterval = 100 * time.Millisecond

// distFit: reddit with rank 50 for 20 iterations; the block size is set per
// input by alignedBlockSize.
var distFit = fitSpec{dataset: "reddit", rank: 50, iters: 20}

// defaultBlockSize is the library's blocked-ADMM block size.
const defaultBlockSize = 50

// alignedBlockSize is the largest block size up to the library default that
// divides every worker's first row in every mode under even placement, so
// each worker's ADMM block grid coincides with the single-node one — the
// condition for distnet's parity with Factorize. On the medium reddit proxy
// (2500 x 250 x 4000 over two workers) it is 25.
func alignedBlockSize(dims []int, workers int) int {
	g := 0
	for _, d := range dims {
		for _, r := range dist.Partition(d, workers)[1:] {
			g = gcd(g, r[0])
		}
	}
	for b := defaultBlockSize; b > 1; b-- {
		if g%b == 0 {
			return b
		}
	}
	return 1
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// cluster is an in-process coordinator with workers dialing it over
// loopback TCP.
type cluster struct {
	coord   *distnet.Coordinator
	workers []*distnet.Worker
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

func startCluster(n int) (*cluster, error) {
	coord, err := distnet.Listen(distnet.Config{Listen: "127.0.0.1:0", HeartbeatInterval: heartbeatInterval})
	if err != nil {
		return nil, err
	}
	// The cluster owns its workers' goroutines; close ends them.
	cctx, cancel := context.WithCancel(context.Background())
	c := &cluster{coord: coord, cancel: cancel}
	for i := 0; i < n; i++ {
		w := distnet.NewWorker(distnet.WorkerConfig{CoordinatorAddr: coord.Addr(), Name: fmt.Sprintf("w%d", i)})
		c.workers = append(c.workers, w)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			_ = w.Run(cctx) // ends with the context or Close; errors are the shutdown itself
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); len(coord.LiveWorkers()) < n; {
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("only %d of %d workers joined", len(coord.LiveWorkers()), n)
		}
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

// close stops the workers, waits for them, and closes the coordinator.
func (c *cluster) close() {
	c.cancel()
	for _, w := range c.workers {
		w.Close()
	}
	c.wg.Wait()
	c.coord.Close()
}

// workerTelemetry snapshots every worker's federated counters by id.
func workerTelemetry(c *distnet.Coordinator) map[uint32]distnet.WorkerInfo {
	out := map[uint32]distnet.WorkerInfo{}
	for _, w := range c.LiveWorkers() {
		out[w.ID] = w
	}
	return out
}

// awaitTelemetry waits until every worker's heartbeat reports an epoch past
// before, so the counters include the job that just finished.
func awaitTelemetry(c *distnet.Coordinator, before map[uint32]distnet.WorkerInfo) (map[uint32]distnet.WorkerInfo, error) {
	deadline := time.Now().Add(10 * heartbeatInterval)
	for {
		now := workerTelemetry(c)
		caught := len(now) == len(before)
		for id, w := range now {
			if w.Epochs <= before[id].Epochs {
				caught = false
			}
		}
		if caught {
			return now, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("worker telemetry did not report the finished job within %v", 10*heartbeatInterval)
		}
		time.Sleep(heartbeatInterval / 10)
	}
}

// runDistReddit times distnet.Coordinator.RunJob on the reddit proxy over a
// coordinator and two workers on loopback.
func runDistReddit(rc *runCtx) error {
	spec := distFit
	x, err := input(spec.dataset, rc.scale, rc.seed)
	if err != nil {
		return err
	}
	spec.blockSize = alignedBlockSize(x.Dims, distWorkers)
	var setups []float64
	var cl *cluster
	var shardDir string
	for i := 0; i < setupReps; i++ {
		if cl != nil {
			cl.close()
		}
		shardDir = filepath.Join(rc.work, fmt.Sprintf("shards-%d", i))
		start := time.Now()
		if _, err := aoadmm.ConvertTensorToShards(x, shardDir, aoadmm.ShardConvertOptions{}); err != nil {
			return err
		}
		if cl, err = startCluster(distWorkers); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer cl.close()
	rc.logf("  input: %s %v nnz=%d on %d workers, rank %d, %d outer iterations, block size %d",
		spec.dataset, x.Dims, x.NNZ(), distWorkers, spec.rank, spec.iters, spec.blockSize)

	var runs []fitRun
	err = repeat(rc, rc.minReps(), func(rep int) error {
		r, err := timeDistJob(rc, cl.coord, shardDir, spec, rep)
		runs = append(runs, r)
		return err
	})
	if err != nil {
		return err
	}

	// Parity with the single-node solver on the store's canonical entry
	// order, single-threaded so summation order matches: untimed.
	st, err := aoadmm.OpenSharded(shardDir)
	if err != nil {
		return err
	}
	canon, err := st.ReadAll()
	if err != nil {
		return err
	}
	opts := spec.options(rc.seed)
	opts.Threads = 1
	ref, err := aoadmm.Factorize(canon, opts)
	if err != nil {
		return err
	}
	checkParity(rc, "distributed", runs[0].relErr, ref.RelErr)

	if rc.traced {
		reportFitLayers(rc, runs)
	} else {
		reportFitE2E(rc, runs, setups)
	}
	return nil
}

// timeDistJob runs and checks one distributed job. A traced rep also
// records the job's merged process trace and its per-layer split, with
// worker-side times from the telemetry the workers federate on heartbeats.
func timeDistJob(rc *runCtx, coord *distnet.Coordinator, shardDir string, spec fitSpec, rep int) (fitRun, error) {
	traced := rc.tracedRep(rep)
	var elapsed []time.Duration
	opts := distnet.JobOptions{
		JobID:          fmt.Sprintf("bench-%d", rep),
		ShardDir:       shardDir,
		Rank:           spec.rank,
		Constraint:     "nonneg",
		MaxOuterIters:  spec.iters,
		BlockSize:      spec.blockSize,
		Threads:        1,
		Seed:           rc.seed,
		Workers:        distWorkers,
		WaitForWorkers: distWorkers,
		Placement:      distnet.PlacementEven,
		Trace:          traced,
		OnIteration: func(p stats.TracePoint) bool {
			elapsed = append(elapsed, p.Elapsed)
			return true
		},
	}
	before := workerTelemetry(coord)
	start := time.Now()
	job, err := coord.RunJob(opts)
	wall := time.Since(start)
	if err != nil {
		return fitRun{}, err
	}
	r := fitRun{wall: wall, iters: iterTimes(elapsed, 0), relErr: job.RelErr, traced: traced}
	checkDist(rc, job, spec)
	if !traced {
		return r, nil
	}
	after, err := awaitTelemetry(coord, before)
	if err != nil {
		return fitRun{}, err
	}
	r.layers = distLayers(r, job, before, after)
	rc.tracer.Emit("bench", "dist_job", stats.ModeNone, obs.TIDDriver, int64(rep), start, wall)
	// The coordinator's trace clock starts as RunJob begins; shift its
	// processes onto the benchmark's timeline and give them their own pids.
	shift := start.UnixNano() - rc.tracer.EpochUnixNano()
	base := 1 + len(rc.procs)
	for _, p := range job.Trace {
		p.PID += base
		p.Name = fmt.Sprintf("%s (job %s)", p.Name, opts.JobID)
		for i := range p.Events {
			p.Events[i].Start += shift
		}
		rc.procs = append(rc.procs, p)
	}
	return r, nil
}

// distLayers splits one traced job: collective volumes, wire bytes and
// recovery counts from the job result; per-worker MTTKRP, ADMM and shard
// load times from the telemetry deltas; and the coordinator's share as the
// wall time the busiest worker does not cover.
func distLayers(r fitRun, job *distnet.JobResult, before, after map[uint32]distnet.WorkerInfo) map[string]float64 {
	out := map[string]float64{
		"distnet.wire_mb":       float64(job.WireBytesSent+job.WireBytesReceived) / (1 << 20),
		"dist.comm.mttkrp_mb":   float64(job.Comm.MTTKRPBytes) / (1 << 20),
		"dist.comm.factor_mb":   float64(job.Comm.FactorBytes) / (1 << 20),
		"dist.comm.gram_mb":     float64(job.Comm.GramBytes) / (1 << 20),
		"dist.comm.admm_b":      float64(job.Comm.ADMMBytes),
		"dist.comm.msgs":        float64(job.Comm.Messages),
		"distnet.epochs":        float64(job.Epochs),
		"distnet.reassignments": float64(job.Reassignments),
		"core.iter_ms.p50":      quantile(ms(r.iters), 0.5),
		"core.relerr":           job.RelErr,
	}
	var busy []float64
	for id, w := range after {
		b := before[id]
		mttkrp := float64(w.MTTKRPNanos-b.MTTKRPNanos) / 1e9
		admm := float64(w.ADMMNanos-b.ADMMNanos) / 1e9
		load := float64(w.ShardStallNanos-b.ShardStallNanos) / 1e9
		out["distnet.worker.mttkrp_s"] += mttkrp
		out["distnet.worker.admm_s"] += admm
		out["distnet.worker.shard_load_s"] += load
		busy = append(busy, mttkrp+admm+load)
	}
	out["distnet.worker_imbalance"] = maxOf(busy) / (sum(busy) / float64(len(busy)))
	out["distnet.coord_s"] = r.wall.Seconds() - maxOf(busy)
	return out
}

// checkDist verifies one job: the full iteration budget ran, the relative
// error is in (0, 1], the factors are finite and non-negative, and the inner
// ADMM sent nothing over the wire.
func checkDist(rc *runCtx, job *distnet.JobResult, spec fitSpec) {
	switch {
	case job.OuterIters != spec.iters:
		rc.check(false, "distributed job ran %d outer iterations, want %d", job.OuterIters, spec.iters)
	case !(job.RelErr > 0 && job.RelErr <= 1):
		rc.check(false, "distributed relative error %v outside (0, 1]", job.RelErr)
	case job.Comm.ADMMBytes != 0:
		rc.check(false, "inner ADMM moved %d bytes; blocked ADMM must not communicate", job.Comm.ADMMBytes)
	default:
		rc.check(factorsFeasible(job.Factors.Factors), "distributed factors contain negative or non-finite entries")
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
