package distnet

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aoadmm/internal/admm"
	"aoadmm/internal/dense"
	"aoadmm/internal/dist"
	"aoadmm/internal/obs"
	"aoadmm/internal/ooc"
	"aoadmm/internal/prox"
)

// WorkerConfig configures a worker process.
type WorkerConfig struct {
	// CoordinatorAddr is the coordinator's TCP address.
	CoordinatorAddr string
	// Name identifies the worker in coordinator logs and /metrics.
	Name string
	// DialTimeout bounds one connection attempt (default 5s);
	// RetryInterval paces reconnects after a drop (default 1s).
	DialTimeout   time.Duration
	RetryInterval time.Duration
	// MaxFrameLen bounds accepted frame payloads (default
	// DefaultMaxFrameLen).
	MaxFrameLen int
	// KernelFormat picks the MTTKRP representation this worker compiles its
	// shard range into: "" or "csf" (default), "alto", or "auto" (cost-model
	// choice on the local partition). Selection is worker-local — no
	// protocol change — and the CSF default keeps runs bit-reproducible
	// across worker counts against the CSF reference loop.
	KernelFormat string
	Logger       *slog.Logger
}

func (c *WorkerConfig) fill() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = time.Second
	}
	if c.MaxFrameLen <= 0 {
		c.MaxFrameLen = DefaultMaxFrameLen
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// Worker is one node of the networked engine: it dials the coordinator,
// heartbeats, and executes the node-local steps of internal/dist (shard
// load, partial MTTKRP, communication-free owned-rows ADMM) on request.
// A dropped connection is retried until Close or context cancellation, so
// a worker started before the coordinator, or surviving a coordinator
// restart, converges to connected.
type Worker struct {
	cfg WorkerConfig

	// stats accumulates the node-local compute/shard counters; together
	// with the socket byte counters and last measured heartbeat RTT it is
	// snapshotted into every heartbeat's telemetry payload, which the
	// coordinator federates into per-worker metrics. Counters are
	// cumulative across reconnects.
	stats    dist.NodeStats
	wireSent atomic.Int64
	wireRecv atomic.Int64
	lastRTT  atomic.Int64

	mu     sync.Mutex
	conn   net.Conn
	closed bool
	done   chan struct{}
}

// NewWorker builds a worker; call Run to start it.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg.fill()
	return &Worker{cfg: cfg, done: make(chan struct{})}
}

// Close stops the worker, severing any live connection.
func (w *Worker) Close() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.done)
		if w.conn != nil {
			w.conn.Close()
		}
	}
	w.mu.Unlock()
}

// Run connects, serves, and reconnects until ctx is cancelled or Close is
// called.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		w.mu.Lock()
		closed := w.closed
		w.mu.Unlock()
		if closed {
			return nil
		}
		if err := w.session(ctx); err != nil && ctx.Err() == nil {
			w.cfg.Logger.Warn("distnet: session ended", "err", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-w.done:
			return nil
		case <-time.After(w.cfg.RetryInterval):
		}
	}
}

// workerJob is the state one Assign establishes: this worker's shard-range
// compiled MTTKRP kernel (CSF trees or ALTO, per WorkerConfig.KernelFormat),
// its per-mode ownership spans, and the replicated factor/dual state the
// coordinator keeps refreshed.
type workerJob struct {
	epoch         uint32
	jobID         string
	dims          []int
	rank          int
	owned         [][2]int
	factors       []*dense.Matrix
	duals         []*dense.Matrix
	kernel        dist.LocalKernel
	cons          []prox.Operator
	blockSize     int
	innerMaxIters int
	threads       int
	innerEps      float64
	shardBytes    int64
	// tracer is non-nil when the assign asked for tracing; it is reused
	// across recovery epochs of the same job so one batch covers the
	// job's whole lifetime on this worker. assignedAt feeds the epoch
	// wall-time telemetry counter.
	tracer     *obs.Tracer
	assignedAt time.Time
}

// span opens a tracer span for this job's node-local work. Nil-safe: with
// tracing off (tracer == nil) it returns the zero Span, whose End no-ops —
// the disabled path is one nil check and zero allocations
// (TestNilTracerEpochPathZeroAlloc).
func (j *workerJob) span(cat, name string, mode int, arg int64) obs.Span {
	return j.tracer.Begin(cat, name, mode, obs.TIDDriver, arg)
}

// session runs one connection lifetime: handshake, heartbeats, dispatch.
func (w *Worker) session(ctx context.Context) error {
	d := net.Dialer{Timeout: w.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", w.cfg.CoordinatorAddr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", w.cfg.CoordinatorAddr, err)
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		conn.Close()
		return nil
	}
	w.conn = conn
	w.mu.Unlock()
	defer func() {
		conn.Close()
		w.mu.Lock()
		if w.conn == conn {
			w.conn = nil
		}
		w.mu.Unlock()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}

	// Replies and heartbeats interleave on the same socket, so every write
	// goes through one mutex.
	var wmu sync.Mutex
	send := func(typ byte, payload []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		n, err := WriteFrame(conn, typ, payload)
		w.wireSent.Add(int64(n))
		return err
	}

	if err := send(msgHello, hello{Name: w.cfg.Name}.encode()); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, nRead, err := ReadFrame(conn, w.cfg.MaxFrameLen)
	if err != nil {
		return fmt.Errorf("welcome: %w", err)
	}
	w.wireRecv.Add(int64(nRead))
	if typ != msgWelcome {
		return fmt.Errorf("expected welcome, got frame type %d", typ)
	}
	wm, err := decodeWelcome(payload)
	if err != nil {
		return err
	}
	conn.SetReadDeadline(time.Time{})
	hb := time.Duration(wm.HeartbeatMs) * time.Millisecond
	if hb <= 0 {
		hb = time.Second
	}
	w.cfg.Logger.Info("distnet: connected", "coordinator", w.cfg.CoordinatorAddr, "worker_id", wm.WorkerID)

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				hb := heartbeat{
					SendUnixNano: time.Now().UnixNano(),
					LastRTTNanos: w.lastRTT.Load(),
					WireSent:     w.wireSent.Load(),
					WireRecv:     w.wireRecv.Load(),
					Node:         w.stats.Snapshot(),
				}
				if err := send(msgHeartbeat, hb.encode()); err != nil {
					return
				}
			}
		}
	}()

	// sendErr reports a fatal condition to the coordinator; the local error
	// keeps the session alive (the coordinator decides the job's fate).
	sendErr := func(format string, args ...any) error {
		text := fmt.Sprintf(format, args...)
		w.cfg.Logger.Warn("distnet: job error", "err", text)
		return send(msgError, errMsg{Text: text}.encode())
	}

	// closeEpoch folds a finished (or superseded) assignment into the
	// epoch telemetry counters.
	closeEpoch := func(j *workerJob) {
		if j == nil {
			return
		}
		w.stats.Epochs.Add(1)
		w.stats.EpochNanos.Add(int64(time.Since(j.assignedAt)))
	}

	var job *workerJob
	for {
		typ, payload, n, err := ReadFrame(conn, w.cfg.MaxFrameLen)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("read: %w", err)
		}
		w.wireRecv.Add(int64(n))
		switch typ {
		case msgAssign:
			a, err := decodeAssign(payload)
			if err != nil {
				if err := sendErr("bad assign: %v", err); err != nil {
					return err
				}
				continue
			}
			if job != nil {
				closeEpoch(job)
			}
			j, err := w.loadAssignment(a, job)
			if err != nil {
				if err := sendErr("assign epoch %d: %v", a.Epoch, err); err != nil {
					return err
				}
				continue
			}
			job = j
			r := ready{Epoch: a.Epoch, NNZ: int64(j.kernel.NNZ()), ShardBytes: j.shardBytes}
			w.cfg.Logger.Info("distnet: assigned",
				"job", j.jobID, "epoch", j.epoch, "mode0", a.Mode0, "nnz", r.NNZ,
				"kernel", j.kernel.Format())
			if err := send(msgReady, r.encode()); err != nil {
				return err
			}

		case msgMTTKRPReq:
			req, err := decodeModeReq(payload)
			if err != nil || job == nil || req.Epoch != job.epoch {
				if err := sendErr("mttkrp request without matching assignment"); err != nil {
					return err
				}
				continue
			}
			m := int(req.Mode)
			if m < 0 || m >= len(job.dims) {
				if err := sendErr("mttkrp mode %d out of range", m); err != nil {
					return err
				}
				continue
			}
			t0 := time.Now()
			sp := job.span("dist", "mttkrp", m, int64(req.Iter))
			p := job.kernel.PartialMTTKRP(m, job.factors, job.dims[m], job.rank)
			sp.End()
			w.stats.MTTKRPCalls.Add(1)
			w.stats.MTTKRPNanos.Add(int64(time.Since(t0)))
			msg := sparsePartial(p, job.epoch, uint32(m))
			if err := send(msgPartial, msg.encode(job.rank)); err != nil {
				return err
			}

		case msgADMMReq:
			ar, err := decodeADMMReq(payload)
			if err != nil || job == nil || ar.Epoch != job.epoch {
				if err := sendErr("admm request without matching assignment"); err != nil {
					return err
				}
				continue
			}
			m := int(ar.Mode)
			if m < 0 || m >= len(job.dims) {
				if err := sendErr("admm mode %d out of range", m); err != nil {
					return err
				}
				continue
			}
			ob, oe := job.owned[m][0], job.owned[m][1]
			if ar.K == nil || ar.K.Rows != oe-ob || ar.K.Cols != job.rank ||
				ar.G == nil || ar.G.Rows != job.rank || ar.G.Cols != job.rank {
				if err := sendErr("admm request shape mismatch for mode %d", m); err != nil {
					return err
				}
				continue
			}
			fb := job.factors[m].RowBlock(ob, oe)
			db := job.duals[m].RowBlock(ob, oe)
			cfg := admm.Config{
				Prox:      job.cons[m],
				Eps:       job.innerEps,
				MaxIters:  job.innerMaxIters,
				BlockSize: job.blockSize,
				Threads:   job.threads,
			}
			t0 := time.Now()
			sp := job.span("dist", "local_admm", m, int64(oe-ob))
			err = dist.LocalADMM(fb, db, ar.K, ar.G, cfg)
			sp.End()
			w.stats.ADMMCalls.Add(1)
			w.stats.ADMMNanos.Add(int64(time.Since(t0)))
			if err != nil {
				if err := sendErr("local admm mode %d: %v", m, err); err != nil {
					return err
				}
				continue
			}
			fr := factorRows{Epoch: job.epoch, Mode: ar.Mode, Factor: fb, Dual: db}
			if err := send(msgFactorRows, fr.encode()); err != nil {
				return err
			}

		case msgFactorBcast:
			bc, err := decodeFactorBcast(payload)
			if err != nil || job == nil || bc.Epoch != job.epoch {
				if err := sendErr("factor broadcast without matching assignment"); err != nil {
					return err
				}
				continue
			}
			m := int(bc.Mode)
			if m < 0 || m >= len(job.dims) ||
				bc.Factor == nil || bc.Factor.Rows != job.dims[m] || bc.Factor.Cols != job.rank {
				if err := sendErr("factor broadcast shape mismatch"); err != nil {
					return err
				}
				continue
			}
			job.factors[m].CopyFrom(bc.Factor)

		case msgDone:
			// Push the job's completed span batch before dropping state: the
			// coordinator collects one msgSpans per slot when tracing is on.
			// The rings are quiescent — this goroutine is their only writer.
			if job != nil && job.tracer != nil {
				sb := spanBatch{
					Epoch:         job.epoch,
					JobID:         job.jobID,
					EpochUnixNano: job.tracer.EpochUnixNano(),
					Dropped:       job.tracer.Dropped(),
					Events:        job.tracer.Events(),
				}
				if err := send(msgSpans, sb.encode()); err != nil {
					return err
				}
			}
			closeEpoch(job)
			job = nil

		case msgHeartbeatAck:
			ack, err := decodeHeartbeatAck(payload)
			if err == nil {
				if rtt := time.Now().UnixNano() - ack.EchoUnixNano; rtt > 0 {
					w.lastRTT.Store(rtt)
				}
			}

		case msgError:
			em, _ := decodeErrMsg(payload)
			w.cfg.Logger.Warn("distnet: coordinator error", "err", em.Text)
			job = nil

		default:
			if err := sendErr("unexpected frame type %d", typ); err != nil {
				return err
			}
		}
	}
}

// loadAssignment realizes one Assign: open the shard store, stream exactly
// the shards covering this worker's mode-0 range, compile the configured
// MTTKRP kernel over it, and adopt the replicated state. prev is the
// assignment being superseded, if any: a traced job keeps its tracer across
// recovery epochs so the final batch covers the whole job on this worker.
func (w *Worker) loadAssignment(a assign, prev *workerJob) (*workerJob, error) {
	if a.Rank < 1 {
		return nil, fmt.Errorf("rank %d", a.Rank)
	}
	var tracer *obs.Tracer
	if a.Trace != 0 {
		if prev != nil && prev.jobID == a.JobID && prev.tracer != nil {
			tracer = prev.tracer
		} else {
			tracer = obs.New(1)
		}
	}
	st, err := ooc.Open(a.ShardDir)
	if err != nil {
		return nil, err
	}
	dims := st.Dims()
	if len(dims) != len(a.Dims) {
		return nil, fmt.Errorf("shard store order %d, assignment order %d", len(dims), len(a.Dims))
	}
	for m, d := range dims {
		if d != a.Dims[m] {
			return nil, fmt.Errorf("shard store dims %v, assignment dims %v", dims, a.Dims)
		}
	}
	if len(a.Owned) != len(dims) || len(a.Factors) != len(dims) || len(a.Duals) != len(dims) {
		return nil, fmt.Errorf("assignment spans/state do not cover order %d", len(dims))
	}
	owned := make([][2]int, len(dims))
	for m, s := range a.Owned {
		lo, hi := int(s[0]), int(s[1])
		if lo < 0 || hi > dims[m] || lo > hi {
			return nil, fmt.Errorf("owned span [%d, %d) outside mode %d dim %d", lo, hi, m, dims[m])
		}
		owned[m] = [2]int{lo, hi}
	}
	for m, f := range a.Factors {
		if f == nil || f.Rows != dims[m] || f.Cols != int(a.Rank) {
			return nil, fmt.Errorf("factor %d shape mismatch", m)
		}
		d := a.Duals[m]
		if d == nil || d.Rows != dims[m] || d.Cols != int(a.Rank) {
			return nil, fmt.Errorf("dual %d shape mismatch", m)
		}
	}
	t0 := time.Now()
	part, bytesRead, err := st.LoadRange(int(a.Mode0[0]), int(a.Mode0[1]))
	loadDur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	tracer.Emit("dist", "shard_load", -1, obs.TIDDriver, bytesRead, t0, loadDur)
	w.stats.ShardLoads.Add(1)
	w.stats.ShardLoadNanos.Add(int64(loadDur))
	w.stats.ShardBytes.Add(bytesRead)
	cons, err := prox.ParseList(a.Constraint)
	if err != nil {
		return nil, err
	}
	cons, err = prox.Broadcast(cons, len(dims))
	if err != nil {
		return nil, err
	}
	threads := int(a.Threads)
	if threads < 1 {
		threads = 1
	}
	kt := time.Now()
	kernel, err := dist.NewLocalKernel(part, w.cfg.KernelFormat, int(a.Rank))
	if err != nil {
		return nil, err
	}
	tracer.Emit("dist", "kernel_build", -1, obs.TIDDriver, int64(kernel.NNZ()), kt, time.Since(kt))
	w.stats.CountKernel(kernel.Format())
	return &workerJob{
		epoch:         a.Epoch,
		jobID:         a.JobID,
		dims:          dims,
		rank:          int(a.Rank),
		owned:         owned,
		factors:       a.Factors,
		duals:         a.Duals,
		kernel:        kernel,
		cons:          cons,
		blockSize:     int(a.BlockSize),
		innerMaxIters: int(a.InnerMaxIters),
		threads:       threads,
		innerEps:      a.InnerEps,
		shardBytes:    bytesRead,
		tracer:        tracer,
		assignedAt:    time.Now(),
	}, nil
}

// sparsePartial extracts the non-zero rows of a partial MTTKRP — the
// reduce-scatter contribution. A row counts if any entry is non-zero, and
// every such non-owned row is priced as one reduce-scatter transfer.
func sparsePartial(p *dense.Matrix, epoch, mode uint32) partial {
	out := partial{Epoch: epoch, Mode: mode}
	for r := 0; r < p.Rows; r++ {
		src := p.Row(r)
		nonZero := false
		for _, v := range src {
			if v != 0 {
				nonZero = true
				break
			}
		}
		if !nonZero {
			continue
		}
		out.Rows = append(out.Rows, int32(r))
		out.Vals = append(out.Vals, src...)
	}
	return out
}
