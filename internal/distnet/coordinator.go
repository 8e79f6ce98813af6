package distnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aoadmm/internal/dense"
	"aoadmm/internal/dist"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/obs"
	"aoadmm/internal/ooc"
	"aoadmm/internal/prox"
	"aoadmm/internal/stats"
)

// Config configures a coordinator.
type Config struct {
	// Listen is the TCP address workers dial (e.g. ":7077").
	Listen string
	// HeartbeatInterval is how often workers are told to heartbeat
	// (default 1s).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout marks a worker dead after this long without any
	// frame from it (default 5 * HeartbeatInterval).
	HeartbeatTimeout time.Duration
	// MaxFrameLen bounds accepted frame payloads (default
	// DefaultMaxFrameLen).
	MaxFrameLen int
	Logger      *slog.Logger
}

func (c *Config) fill() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 5 * c.HeartbeatInterval
	}
	if c.MaxFrameLen <= 0 {
		c.MaxFrameLen = DefaultMaxFrameLen
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// Stats is a point-in-time snapshot of the coordinator's counters,
// cumulative across jobs. Collectives carries the logical collective volume
// as dist.Pricer prices it; WireBytes* count physical TCP
// frame bytes (payload + framing), which include control traffic (assigns,
// heartbeats, duals) the collective schema deliberately excludes.
type Stats struct {
	WorkersLive       int
	JobsTotal         int64
	Reassignments     int64
	HeartbeatMisses   int64
	Epochs            int64
	WireBytesSent     int64
	WireBytesReceived int64
	// TraceSpans counts span events merged into multi-process traces.
	TraceSpans  int64
	Collectives dist.CommStats
}

// WorkerInfo describes one connected worker: identity, liveness, and the
// telemetry counters the worker last piggybacked on a heartbeat (cumulative
// on the worker across reconnects). The serving layer federates these as
// per-worker aoadmm_dist_worker_* metrics and the /healthz liveness table.
type WorkerInfo struct {
	ID   uint32 `json:"id"`
	Name string `json:"name"`
	Addr string `json:"addr"`
	// LastSeenUnixNano is the coordinator-clock time of the last frame
	// received from this worker; heartbeat age derives from it.
	LastSeenUnixNano int64 `json:"last_seen_unix_nano"`
	// HeartbeatRTTNanos is the worker's last measured heartbeat round trip;
	// ClockOffsetNanos is the estimated worker-to-coordinator clock offset
	// (recv_local - send - rtt/2) used to merge traces.
	HeartbeatRTTNanos int64 `json:"heartbeat_rtt_nanos"`
	ClockOffsetNanos  int64 `json:"clock_offset_nanos"`
	// Node-local telemetry federated from the worker's last heartbeat.
	Epochs          int64 `json:"epochs"`
	EpochNanos      int64 `json:"epoch_nanos"`
	ShardLoads      int64 `json:"shard_loads"`
	ShardStallNanos int64 `json:"shard_stall_nanos"`
	ShardBytes      int64 `json:"shard_bytes"`
	MTTKRPCalls     int64 `json:"mttkrp_calls"`
	MTTKRPNanos     int64 `json:"mttkrp_nanos"`
	ADMMCalls       int64 `json:"admm_calls"`
	ADMMNanos       int64 `json:"admm_nanos"`
	KernelCSF       int64 `json:"kernel_csf"`
	KernelALTO      int64 `json:"kernel_alto"`
	WireSentBytes   int64 `json:"wire_sent_bytes"`
	WireRecvBytes   int64 `json:"wire_recv_bytes"`
}

// errWorkerDead marks an epoch aborted by a worker failure: the job
// restarts from the last checkpoint on the survivors instead of failing.
var errWorkerDead = errors.New("distnet: worker died")

type frame struct {
	typ     byte
	payload []byte
}

// workerConn is the coordinator's handle on one connected worker.
type workerConn struct {
	id       uint32
	name     string
	conn     net.Conn
	c        *Coordinator
	wmu      sync.Mutex
	frames   chan frame
	dead     chan struct{}
	deadOnce sync.Once
	lastSeen atomic.Int64

	// Telemetry from the worker's last heartbeat, plus the clock offset
	// derived from it. Guarded by tmu: heartbeats land on the read loop
	// while metrics scrapes and trace merges read concurrently.
	tmu         sync.Mutex
	tel         heartbeat
	clockOffset int64
}

func (w *workerConn) markDead(why string) {
	w.deadOnce.Do(func() {
		close(w.dead)
		w.conn.Close()
		w.c.removeWorker(w.id)
		w.c.cfg.Logger.Info("distnet: worker dead", "id", w.id, "name", w.name, "why", why)
	})
}

func (w *workerConn) alive() bool {
	select {
	case <-w.dead:
		return false
	default:
		return true
	}
}

// send writes one frame under the write mutex and accounts wire bytes. A
// write failure marks the worker dead.
func (w *workerConn) send(typ byte, payload []byte) error {
	if !w.alive() {
		return fmt.Errorf("send to worker %d: %w", w.id, errWorkerDead)
	}
	w.wmu.Lock()
	n, err := WriteFrame(w.conn, typ, payload)
	w.wmu.Unlock()
	w.c.wireSent.Add(int64(n))
	if err != nil {
		w.markDead("write: " + err.Error())
		return fmt.Errorf("send to worker %d: %w", w.id, errWorkerDead)
	}
	return nil
}

// readLoop pumps inbound frames. Heartbeats only refresh liveness; every
// other frame is queued for the job loop. A read failure (including the
// peer's kernel closing the socket after a kill -9) marks the worker dead
// immediately, ahead of the heartbeat timeout.
func (w *workerConn) readLoop() {
	for {
		typ, payload, n, err := ReadFrame(w.conn, w.c.cfg.MaxFrameLen)
		if err != nil {
			w.markDead("read: " + err.Error())
			return
		}
		w.c.wireRecv.Add(int64(n))
		now := time.Now().UnixNano()
		w.lastSeen.Store(now)
		if typ == msgHeartbeat {
			// Telemetry piggybacks on the heartbeat; the ack echoes the send
			// time so the worker can measure RTT for the next round. The
			// offset estimate assumes a symmetric path: the worker's clock
			// read happened ~rtt/2 before this frame landed.
			if hb, err := decodeHeartbeat(payload); err == nil && hb.SendUnixNano != 0 {
				w.tmu.Lock()
				w.tel = hb
				w.clockOffset = now - hb.SendUnixNano - hb.LastRTTNanos/2
				w.tmu.Unlock()
				_ = w.send(msgHeartbeatAck, heartbeatAck{EchoUnixNano: hb.SendUnixNano}.encode())
			}
			continue
		}
		select {
		case w.frames <- frame{typ, payload}:
		case <-w.dead:
			return
		}
	}
}

// recv waits for a frame of the wanted type for the given epoch. Replies
// left over from an aborted earlier epoch are discarded; a worker error
// message, death, or context cancellation fails the wait.
func (w *workerConn) recv(ctx context.Context, epoch uint32, want byte) ([]byte, error) {
	for {
		select {
		case f := <-w.frames:
			if f.typ == msgError {
				em, _ := decodeErrMsg(f.payload)
				return nil, fmt.Errorf("distnet: worker %d (%s): %s", w.id, w.name, em.Text)
			}
			if len(f.payload) < 4 {
				return nil, fmt.Errorf("distnet: worker %d: short frame type %d", w.id, f.typ)
			}
			e := binary.LittleEndian.Uint32(f.payload)
			if e < epoch {
				continue // stale reply from an aborted epoch
			}
			if f.typ != want || e != epoch {
				return nil, fmt.Errorf("distnet: worker %d: frame type %d epoch %d, want type %d epoch %d",
					w.id, f.typ, e, want, epoch)
			}
			return f.payload, nil
		case <-w.dead:
			return nil, fmt.Errorf("recv from worker %d: %w", w.id, errWorkerDead)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Coordinator accepts worker connections and drives distributed jobs over
// them. One job runs at a time; workers may join at any moment and are
// picked up by the next job (or the next recovery epoch of the current
// one).
type Coordinator struct {
	cfg  Config
	ln   net.Listener
	done chan struct{}

	mu      sync.Mutex
	workers map[uint32]*workerConn
	nextID  uint32

	jobMu sync.Mutex

	jobsTotal       atomic.Int64
	reassignments   atomic.Int64
	heartbeatMisses atomic.Int64
	epochs          atomic.Int64
	wireSent        atomic.Int64
	wireRecv        atomic.Int64
	commMTTKRP      atomic.Int64
	commFactor      atomic.Int64
	commGram        atomic.Int64
	commADMM        atomic.Int64
	commMsgs        atomic.Int64
	traceSpans      atomic.Int64
}

// Listen starts a coordinator on cfg.Listen.
func Listen(cfg Config) (*Coordinator, error) {
	cfg.fill()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("distnet: listen: %w", err)
	}
	c := &Coordinator{
		cfg:     cfg,
		ln:      ln,
		done:    make(chan struct{}),
		workers: make(map[uint32]*workerConn),
	}
	go c.acceptLoop()
	go c.monitorLoop()
	return c, nil
}

// Addr returns the bound listen address (useful with ":0").
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close shuts the coordinator down and drops every worker.
func (c *Coordinator) Close() error {
	select {
	case <-c.done:
		return nil
	default:
	}
	close(c.done)
	err := c.ln.Close()
	c.mu.Lock()
	ws := make([]*workerConn, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	for _, w := range ws {
		w.markDead("coordinator closed")
	}
	return err
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.done:
				return
			default:
			}
			c.cfg.Logger.Warn("distnet: accept", "err", err)
			continue
		}
		go c.handshake(conn)
	}
}

// handshake admits one worker: Hello in, Welcome out, then the reader.
func (c *Coordinator) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, _, err := ReadFrame(conn, c.cfg.MaxFrameLen)
	if err != nil || typ != msgHello {
		conn.Close()
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}

	c.mu.Lock()
	c.nextID++
	w := &workerConn{
		id:     c.nextID,
		name:   h.Name,
		conn:   conn,
		c:      c,
		frames: make(chan frame, 64),
		dead:   make(chan struct{}),
	}
	w.lastSeen.Store(time.Now().UnixNano())
	c.workers[w.id] = w
	c.mu.Unlock()

	wm := welcome{
		WorkerID:      w.id,
		HeartbeatMs:   uint32(c.cfg.HeartbeatInterval / time.Millisecond),
		MaxFrameBytes: uint32(c.cfg.MaxFrameLen),
	}
	if err := w.send(msgWelcome, wm.encode()); err != nil {
		return
	}
	c.cfg.Logger.Info("distnet: worker joined", "id", w.id, "name", w.name, "addr", conn.RemoteAddr())
	go w.readLoop()
}

// monitorLoop enforces the heartbeat timeout.
func (c *Coordinator) monitorLoop() {
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case now := <-t.C:
			cutoff := now.Add(-c.cfg.HeartbeatTimeout).UnixNano()
			for _, w := range c.liveSorted() {
				if w.lastSeen.Load() < cutoff {
					c.heartbeatMisses.Add(1)
					w.markDead("heartbeat timeout")
				}
			}
		}
	}
}

func (c *Coordinator) removeWorker(id uint32) {
	c.mu.Lock()
	delete(c.workers, id)
	c.mu.Unlock()
}

func (c *Coordinator) liveSorted() []*workerConn {
	c.mu.Lock()
	out := make([]*workerConn, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, w)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// LiveWorkers lists the currently connected workers with their last
// federated telemetry.
func (c *Coordinator) LiveWorkers() []WorkerInfo {
	ws := c.liveSorted()
	out := make([]WorkerInfo, len(ws))
	for i, w := range ws {
		w.tmu.Lock()
		tel, off := w.tel, w.clockOffset
		w.tmu.Unlock()
		out[i] = WorkerInfo{
			ID:   w.id,
			Name: w.name,
			Addr: w.conn.RemoteAddr().String(),

			LastSeenUnixNano:  w.lastSeen.Load(),
			HeartbeatRTTNanos: tel.LastRTTNanos,
			ClockOffsetNanos:  off,

			Epochs:          tel.Node.Epochs,
			EpochNanos:      tel.Node.EpochNanos,
			ShardLoads:      tel.Node.ShardLoads,
			ShardStallNanos: tel.Node.ShardLoadNanos,
			ShardBytes:      tel.Node.ShardBytes,
			MTTKRPCalls:     tel.Node.MTTKRPCalls,
			MTTKRPNanos:     tel.Node.MTTKRPNanos,
			ADMMCalls:       tel.Node.ADMMCalls,
			ADMMNanos:       tel.Node.ADMMNanos,
			KernelCSF:       tel.Node.KernelCSF,
			KernelALTO:      tel.Node.KernelALTO,
			WireSentBytes:   tel.WireSent,
			WireRecvBytes:   tel.WireRecv,
		}
	}
	return out
}

// Stats snapshots the cumulative counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	live := len(c.workers)
	c.mu.Unlock()
	return Stats{
		WorkersLive:       live,
		JobsTotal:         c.jobsTotal.Load(),
		Reassignments:     c.reassignments.Load(),
		HeartbeatMisses:   c.heartbeatMisses.Load(),
		Epochs:            c.epochs.Load(),
		WireBytesSent:     c.wireSent.Load(),
		WireBytesReceived: c.wireRecv.Load(),
		TraceSpans:        c.traceSpans.Load(),
		Collectives: dist.CommStats{
			MTTKRPBytes: c.commMTTKRP.Load(),
			FactorBytes: c.commFactor.Load(),
			GramBytes:   c.commGram.Load(),
			ADMMBytes:   c.commADMM.Load(),
			Messages:    c.commMsgs.Load(),
		},
	}
}

// waitForWorkers blocks until at least atLeast workers are live, then
// returns up to most of them in id order.
func (c *Coordinator) waitForWorkers(ctx context.Context, atLeast, most int) ([]*workerConn, error) {
	for {
		live := c.liveSorted()
		if len(live) >= atLeast {
			if len(live) > most {
				live = live[:most]
			}
			return live, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.done:
			return nil, errors.New("distnet: coordinator closed")
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// JobOptions parameterizes one distributed factorization.
type JobOptions struct {
	// JobID tags checkpoints and logs.
	JobID string
	// ShardDir is the .aoshard directory every participant reads; it must
	// be visible to the workers under the same path (shared filesystem, or
	// localhost processes).
	ShardDir string
	// Rank is the CPD rank.
	Rank int
	// Constraint is the prox.ParseList spec shipped to workers ("" = none).
	Constraint string
	// MaxOuterIters caps outer iterations (<= 0 means 50). Tol, when > 0,
	// stops early once the relative error improves by less than Tol.
	MaxOuterIters int
	Tol           float64
	// BlockSize / InnerEps / InnerMaxIters parameterize the workers' local
	// blocked ADMM (admm.Config's Eps, MaxIters and BlockSize).
	BlockSize     int
	InnerEps      float64
	InnerMaxIters int
	// Threads is the per-worker ADMM thread count (<= 0 means 1; the block
	// grid, and therefore the arithmetic, is thread-count independent).
	Threads int
	// Seed drives initialization, matching core.Factorize.
	Seed int64
	// Trace enables cluster-wide tracing: the coordinator runs a span
	// tracer around the per-epoch collective phases, every worker traces
	// its node-local work, and the batches merge into JobResult.Trace —
	// one Chrome/Perfetto trace correlated by the job ID with per-worker
	// clock offsets estimated from heartbeat RTTs. Off (the default) adds
	// zero allocations to the epoch path.
	Trace bool
	// Workers is the maximum worker count to spread over (<= 0 means all
	// currently live). WaitForWorkers blocks the first epoch until that
	// many workers have joined (<= 0 means 1); recovery epochs only ever
	// wait for 1 so a job survives down to a single worker.
	Workers        int
	WaitForWorkers int
	// Placement is PlacementEven (default) or PlacementShards.
	Placement string
	// CheckpointDir, with CheckpointEvery > 0, persists factors + duals
	// every CheckpointEvery outer iterations; it is also what a recovery
	// epoch warm-restarts from.
	CheckpointDir   string
	CheckpointEvery int
	// Resume starts from a previously saved checkpoint.
	Resume *kruskal.Checkpoint
	// Ctx cancels the job (result reports Stopped, not an error).
	Ctx context.Context
	// OnIteration, when non-nil, observes every outer iteration; returning
	// false stops the job (Stopped = true).
	OnIteration func(stats.TracePoint) bool
}

// JobResult is the outcome of a distributed job.
type JobResult struct {
	Factors    *kruskal.Tensor
	Duals      []*dense.Matrix
	RelErr     float64
	OuterIters int
	Converged  bool
	Stopped    bool
	// Comm is the logical collective volume as dist.Pricer prices it; a
	// failure-free run reports the same counts for the same (tensor,
	// workers, rank, placement) every time. Recovery epochs re-run
	// iterations and therefore re-price them.
	Comm dist.CommStats
	// WireBytesSent / WireBytesReceived are the coordinator's physical TCP
	// frame bytes for this job (control traffic included).
	WireBytesSent     int64
	WireBytesReceived int64
	// Workers is the slot count of the last epoch; Epochs counts
	// assignments (1 = no failures); Reassignments counts recoveries.
	Workers       int
	Epochs        int
	Reassignments int
	// Trace is the merged multi-process trace when JobOptions.Trace was
	// set: the coordinator's process first, then one process per worker
	// that survived to the job's final epoch, with every Start already on
	// the coordinator's timeline (render with obs.WriteChromeProcesses).
	// Workers that died mid-job, and jobs that end by context
	// cancellation, lose their worker-side spans.
	Trace []obs.ProcessTrace
}

// maxJobEpochs bounds recovery attempts so a pathological environment
// (workers that die every epoch) fails instead of looping forever.
const maxJobEpochs = 64

// RunJob drives one distributed factorization over the connected workers.
// Jobs serialize: a second caller blocks until the first finishes.
//
// Per epoch the coordinator places the mode-0 ranges over the live workers,
// ships the replicated model state, and per iteration and mode runs the
// paper's collective sequence — partial-MTTKRP reduce-scatter (priced per
// non-owned non-zero row), communication-free local ADMM on owned rows,
// factor allgather, Gram allreduce — reducing partials in slot order so the
// float summation order, and hence the result, is bit-reproducible for a
// given placement (the package tests pin it against a one-process reference
// loop). A worker death aborts the epoch, and the job warm-restarts on
// the survivors from the freshest of (last checkpoint, epoch-start state).
func (c *Coordinator) RunJob(opts JobOptions) (*JobResult, error) {
	c.jobMu.Lock()
	defer c.jobMu.Unlock()

	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Rank <= 0 {
		return nil, fmt.Errorf("distnet: Rank must be positive")
	}
	st, err := ooc.Open(opts.ShardDir)
	if err != nil {
		return nil, fmt.Errorf("distnet: open shard dir: %w", err)
	}
	dims := st.Dims()
	order := len(dims)
	rank := opts.Rank
	if opts.MaxOuterIters <= 0 {
		opts.MaxOuterIters = 50
	}
	if opts.Threads <= 0 {
		opts.Threads = 1
	}
	cons, err := prox.ParseList(opts.Constraint)
	if err != nil {
		return nil, err
	}
	if _, err := prox.Broadcast(cons, order); err != nil {
		return nil, err
	}

	c.jobsTotal.Add(1)
	xNormSq := st.NormSq()
	started := time.Now()

	// The coordinator's own tracer; nil when tracing is off, so every span
	// below is a no-op nil check on the hot path.
	var tracer *obs.Tracer
	if opts.Trace {
		tracer = obs.New(1)
	}

	// Replicated authoritative state. Recovery epochs re-enter here from a
	// checkpoint or the epoch-start snapshot.
	var model *kruskal.Tensor
	var duals []*dense.Matrix
	startIter := 0
	prevRelErr := 1.0
	if opts.Resume != nil && opts.Resume.Factors != nil {
		model = opts.Resume.Factors
		duals = opts.Resume.Duals
		if opts.Resume.Meta != nil {
			startIter = opts.Resume.Meta.Iteration
			prevRelErr = opts.Resume.Meta.RelErr
		}
	} else {
		model = kruskal.Init(dims, rank, opts.Seed, xNormSq, 1)
	}
	if duals == nil {
		duals = make([]*dense.Matrix, order)
	}
	for m := 0; m < order; m++ {
		if duals[m] == nil {
			duals[m] = dense.New(dims[m], rank)
		}
	}

	pricer := &dist.Pricer{}
	var commSnap dist.CommStats
	syncComm := func() {
		cur := pricer.Stats()
		c.commMTTKRP.Add(cur.MTTKRPBytes - commSnap.MTTKRPBytes)
		c.commFactor.Add(cur.FactorBytes - commSnap.FactorBytes)
		c.commGram.Add(cur.GramBytes - commSnap.GramBytes)
		c.commADMM.Add(cur.ADMMBytes - commSnap.ADMMBytes)
		c.commMsgs.Add(cur.Messages - commSnap.Messages)
		commSnap = cur
	}
	defer syncComm()
	wireSent0, wireRecv0 := c.wireSent.Load(), c.wireRecv.Load()

	res := &JobResult{}
	finish := func() (*JobResult, error) {
		res.Factors = model
		res.Duals = duals
		res.Comm = pricer.Stats()
		res.WireBytesSent = c.wireSent.Load() - wireSent0
		res.WireBytesReceived = c.wireRecv.Load() - wireRecv0
		if tracer != nil {
			evs := tracer.Events()
			c.traceSpans.Add(int64(len(evs)))
			res.Trace = append([]obs.ProcessTrace{{
				PID:       1,
				Name:      "coordinator",
				SortIndex: -1,
				Workers:   tracer.Workers(),
				Args:      map[string]any{"job_id": opts.JobID},
				Events:    evs,
			}}, res.Trace...)
		}
		syncComm()
		return res, nil
	}

	epoch := uint32(0)
	for {
		if ctx.Err() != nil {
			res.Stopped = true
			return finish()
		}
		epoch++
		if epoch > maxJobEpochs {
			return nil, fmt.Errorf("distnet: job %q gave up after %d epochs", opts.JobID, maxJobEpochs)
		}
		c.epochs.Add(1)
		res.Epochs = int(epoch)

		atLeast := opts.WaitForWorkers
		if atLeast <= 0 || epoch > 1 {
			atLeast = 1
		}
		most := opts.Workers
		if most <= 0 {
			most = int(^uint(0) >> 1)
		}
		slots, err := c.waitForWorkers(ctx, atLeast, most)
		if err != nil {
			if ctx.Err() != nil {
				res.Stopped = true
				return finish()
			}
			return nil, err
		}
		res.Workers = len(slots)

		ranges, err := place(st, len(slots), opts.Placement)
		if err != nil {
			return nil, err
		}

		// Snapshot epoch-start state for the checkpoint-free recovery path.
		snapModel := cloneModel(model)
		snapDuals := cloneMats(duals)
		snapIter, snapPrev := startIter, prevRelErr

		completed, runErr := c.runEpoch(ctx, epochRun{
			opts: opts, st: st, dims: dims, order: order, rank: rank,
			xNormSq: xNormSq, started: started,
			epoch: epoch, slots: slots, ranges: ranges,
			model: model, duals: duals,
			startIter: startIter, prevRelErr: prevRelErr,
			pricer: pricer, syncComm: syncComm, res: res,
			tracer: tracer,
		})
		if runErr == nil {
			if completed {
				return finish()
			}
			// Epoch exhausted MaxOuterIters.
			return finish()
		}
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			res.Stopped = true
			return finish()
		}
		if !errors.Is(runErr, errWorkerDead) {
			return nil, runErr
		}

		// A worker died mid-epoch: reassign its range to the survivors and
		// warm-restart from the freshest consistent state.
		c.reassignments.Add(1)
		res.Reassignments++
		model, duals, startIter, prevRelErr = snapModel, snapDuals, snapIter, snapPrev
		if opts.CheckpointDir != "" {
			if cp, err := kruskal.LoadCheckpoint(opts.CheckpointDir); err == nil &&
				cp.Meta != nil && cp.Meta.Iteration >= snapIter &&
				(opts.JobID == "" || cp.Meta.JobID == opts.JobID) &&
				modelMatches(cp, dims, rank) {
				model = cp.Factors
				duals = cp.Duals
				if duals == nil {
					duals = make([]*dense.Matrix, order)
				}
				for m := 0; m < order; m++ {
					if duals[m] == nil {
						duals[m] = dense.New(dims[m], rank)
					}
				}
				startIter = cp.Meta.Iteration
				prevRelErr = cp.Meta.RelErr
			}
		}
		c.cfg.Logger.Warn("distnet: epoch aborted, reassigning",
			"job", opts.JobID, "epoch", epoch, "resume_iter", startIter, "err", runErr)
	}
}

// epochRun carries one epoch's working state into runEpoch.
type epochRun struct {
	opts    JobOptions
	st      *ooc.ShardedTensor
	dims    []int
	order   int
	rank    int
	xNormSq float64
	started time.Time

	epoch  uint32
	slots  []*workerConn
	ranges [][2]int

	model *kruskal.Tensor
	duals []*dense.Matrix

	startIter  int
	prevRelErr float64

	pricer   *dist.Pricer
	syncComm func()
	res      *JobResult
	// tracer is the job's coordinator-side span tracer (nil = tracing off).
	tracer *obs.Tracer
}

// runEpoch assigns the epoch to its slots and drives iterations until the
// job completes (true, nil), MaxOuterIters is exhausted (false, nil), or an
// error aborts the epoch — errWorkerDead for a recoverable failure.
func (c *Coordinator) runEpoch(ctx context.Context, e epochRun) (bool, error) {
	opts, n := e.opts, len(e.slots)
	dims, order, rank := e.dims, e.order, e.rank

	// Per-mode contiguous row ownership: mode 0 follows nnz placement, the
	// rest split evenly by dist.Partition.
	owned := make([][][2]int, order)
	owned[0] = e.ranges
	for m := 1; m < order; m++ {
		owned[m] = dist.Partition(dims[m], n)
	}

	// Assign: ship job parameters, placement, and the full replicated
	// state; wait for every slot to load its shard range.
	asp := e.tracer.Begin("coord", "assign_epoch", -1, obs.TIDDriver, int64(e.epoch))
	trace := uint32(0)
	if e.tracer != nil {
		trace = 1
	}
	for i, w := range e.slots {
		a := assign{
			JobID:         opts.JobID,
			Epoch:         e.epoch,
			Slot:          uint32(i),
			Workers:       uint32(n),
			ShardDir:      opts.ShardDir,
			Constraint:    opts.Constraint,
			Rank:          uint32(rank),
			BlockSize:     uint32(opts.BlockSize),
			InnerMaxIters: uint32(opts.InnerMaxIters),
			Threads:       uint32(opts.Threads),
			InnerEps:      opts.InnerEps,
			Trace:         trace,
			Dims:          dims,
			Mode0:         [2]int64{int64(e.ranges[i][0]), int64(e.ranges[i][1])},
			Owned:         ownedFor(owned, i),
			Factors:       e.model.Factors,
			Duals:         e.duals,
		}
		if err := w.send(msgAssign, a.encode()); err != nil {
			return false, err
		}
	}
	var totalNNZ int64
	for _, w := range e.slots {
		pl, err := w.recv(ctx, e.epoch, msgReady)
		if err != nil {
			return false, err
		}
		r, err := decodeReady(pl)
		if err != nil {
			return false, err
		}
		totalNNZ += r.NNZ
	}
	if totalNNZ != e.st.NNZ() {
		return false, fmt.Errorf("distnet: placement covers %d non-zeros, tensor has %d", totalNNZ, e.st.NNZ())
	}
	asp.End()

	// Replicated Gram state, recomputed from the epoch's factors.
	grams := make([]*dense.Matrix, order)
	for m := 0; m < order; m++ {
		grams[m] = dense.Gram(e.model.Factors[m], 1)
	}

	prevRelErr := e.prevRelErr
	for iter := e.startIter + 1; iter <= opts.MaxOuterIters; iter++ {
		isp := e.tracer.Begin("outer", "outer_iter", -1, obs.TIDDriver, int64(iter))
		var lastK *dense.Matrix
		var lastMode int
		for m := 0; m < order; m++ {
			g := dense.GramProduct(grams, m)

			// Phase 1+2: partial MTTKRPs, reduce-scattered. Workers send
			// only the non-zero rows of their partial; the reduction runs
			// in slot order so the summation order is fixed, and each
			// non-owned row is priced as one reduce-scatter transfer.
			rsp := e.tracer.Begin("coord", "reduce_scatter", m, obs.TIDDriver, int64(iter))
			req := modeReq{Epoch: e.epoch, Iter: uint32(iter), Mode: uint32(m)}.encode()
			for _, w := range e.slots {
				if err := w.send(msgMTTKRPReq, req); err != nil {
					return false, err
				}
			}
			partials := make([]partial, n)
			for i, w := range e.slots {
				pl, err := w.recv(ctx, e.epoch, msgPartial)
				if err != nil {
					return false, err
				}
				p, prank, err := decodePartial(pl)
				if err != nil {
					return false, err
				}
				if prank != rank || int(p.Mode) != m {
					return false, fmt.Errorf("distnet: worker %d: partial rank %d mode %d, want %d/%d",
						w.id, prank, p.Mode, rank, m)
				}
				partials[i] = p
			}
			k := dense.New(dims[m], rank)
			for i := range partials {
				ob, oe := owned[m][i][0], owned[m][i][1]
				p := partials[i]
				for ri, r := range p.Rows {
					row := int(r)
					if row < 0 || row >= dims[m] {
						return false, fmt.Errorf("distnet: worker %d: partial row %d outside mode %d dim %d",
							e.slots[i].id, row, m, dims[m])
					}
					dst := k.Row(row)
					src := p.Vals[ri*rank : (ri+1)*rank]
					for j, v := range src {
						dst[j] += v
					}
					if row < ob || row >= oe {
						e.pricer.ReduceScatterRow(rank)
					}
				}
			}
			rsp.End()

			// Phase 3: ship G + owned K rows; workers run the
			// communication-free blocked ADMM on their owned spans.
			osp := e.tracer.Begin("coord", "admm_rows", m, obs.TIDDriver, int64(iter))
			for i, w := range e.slots {
				ob, oe := owned[m][i][0], owned[m][i][1]
				ar := admmReq{Epoch: e.epoch, Mode: uint32(m), G: g, K: k.RowBlock(ob, oe)}
				if err := w.send(msgADMMReq, ar.encode()); err != nil {
					return false, err
				}
			}
			for i, w := range e.slots {
				ob, oe := owned[m][i][0], owned[m][i][1]
				pl, err := w.recv(ctx, e.epoch, msgFactorRows)
				if err != nil {
					return false, err
				}
				fr, err := decodeFactorRows(pl)
				if err != nil {
					return false, err
				}
				if int(fr.Mode) != m ||
					fr.Factor == nil || fr.Factor.Rows != oe-ob || fr.Factor.Cols != rank ||
					fr.Dual == nil || fr.Dual.Rows != oe-ob || fr.Dual.Cols != rank {
					return false, fmt.Errorf("distnet: worker %d: bad factor rows for mode %d", w.id, m)
				}
				if oe > ob {
					e.model.Factors[m].RowBlock(ob, oe).CopyFrom(fr.Factor)
					e.duals[m].RowBlock(ob, oe).CopyFrom(fr.Dual)
				}
				// Phase 4a: the allgather of this slot's updated rows.
				e.pricer.AllgatherNode(oe-ob, rank, n)
			}
			osp.End()

			// Phase 4b: Gram allreduce, then replicate the full factor.
			bsp := e.tracer.Begin("coord", "factor_bcast", m, obs.TIDDriver, int64(iter))
			grams[m] = dense.Gram(e.model.Factors[m], 1)
			e.pricer.GramAllreduce(rank, n)
			fb := factorBcast{Epoch: e.epoch, Mode: uint32(m), Factor: e.model.Factors[m]}.encode()
			for _, w := range e.slots {
				if err := w.send(msgFactorBcast, fb); err != nil {
					return false, err
				}
			}
			bsp.End()
			lastK, lastMode = k, m
		}
		isp.End()

		inner := kruskal.InnerWithMTTKRP(lastK, e.model.Factors[lastMode])
		relErr := kruskal.RelErr(e.xNormSq, inner, kruskal.NormSqFromGrams(grams))
		e.res.RelErr = relErr
		e.res.OuterIters = iter
		e.syncComm()

		if opts.CheckpointDir != "" && opts.CheckpointEvery > 0 && iter%opts.CheckpointEvery == 0 {
			cp := kruskal.Checkpoint{
				Factors: e.model,
				Duals:   e.duals,
				Meta: &kruskal.CheckpointMeta{
					Iteration:     iter,
					RelErr:        relErr,
					JobID:         opts.JobID,
					Attempt:       int(e.epoch),
					SavedUnixNano: time.Now().UnixNano(),
				},
			}
			if err := kruskal.SaveCheckpointAtomic(opts.CheckpointDir, cp); err != nil {
				c.cfg.Logger.Warn("distnet: checkpoint failed", "job", opts.JobID, "iter", iter, "err", err)
			}
		}

		if opts.OnIteration != nil && !opts.OnIteration(stats.TracePoint{
			Iteration: iter,
			Elapsed:   time.Since(e.started),
			RelErr:    relErr,
		}) {
			e.res.Stopped = true
			c.sendDone(e.slots, e.epoch)
			c.collectSpans(ctx, &e)
			return true, nil
		}
		if opts.Tol > 0 && prevRelErr-relErr < opts.Tol {
			e.res.Converged = true
			c.sendDone(e.slots, e.epoch)
			c.collectSpans(ctx, &e)
			return true, nil
		}
		prevRelErr = relErr
		if err := ctx.Err(); err != nil {
			return false, err
		}
	}
	c.sendDone(e.slots, e.epoch)
	c.collectSpans(ctx, &e)
	return true, nil
}

// collectSpans gathers one span batch per surviving slot after Done (the
// worker pushes its batch on receiving msgDone), shifts each worker's
// events onto the coordinator's timeline — absolute worker time from the
// batch's tracer epoch, then the heartbeat-derived clock offset, then
// rebased against the coordinator tracer's epoch — and appends one
// ProcessTrace per worker to the job result. Workers that die during
// collection just lose their spans; the job result is unaffected.
func (c *Coordinator) collectSpans(ctx context.Context, e *epochRun) {
	if e.tracer == nil {
		return
	}
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	coordEpoch := e.tracer.EpochUnixNano()
	for _, w := range e.slots {
		pl, err := w.recv(cctx, e.epoch, msgSpans)
		if err != nil {
			c.cfg.Logger.Warn("distnet: span collection failed", "worker", w.id, "err", err)
			continue
		}
		sb, err := decodeSpanBatch(pl)
		if err != nil {
			c.cfg.Logger.Warn("distnet: bad span batch", "worker", w.id, "err", err)
			continue
		}
		w.tmu.Lock()
		off := w.clockOffset
		w.tmu.Unlock()
		evs := sb.Events
		for i := range evs {
			evs[i].Start = sb.EpochUnixNano + evs[i].Start + off - coordEpoch
		}
		c.traceSpans.Add(int64(len(evs)))
		if sb.Dropped > 0 {
			c.cfg.Logger.Warn("distnet: worker trace dropped events", "worker", w.id, "dropped", sb.Dropped)
		}
		e.res.Trace = append(e.res.Trace, obs.ProcessTrace{
			PID:       int(w.id) + 1,
			Name:      "worker:" + w.name,
			SortIndex: int(w.id),
			Workers:   1,
			Args:      map[string]any{"job_id": sb.JobID},
			Events:    evs,
		})
	}
}

// sendDone tells every slot the job is over (best effort).
func (c *Coordinator) sendDone(slots []*workerConn, epoch uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], epoch)
	for _, w := range slots {
		_ = w.send(msgDone, b[:])
	}
}

// ownedFor extracts slot i's per-mode ownership spans.
func ownedFor(owned [][][2]int, i int) [][2]int64 {
	out := make([][2]int64, len(owned))
	for m := range owned {
		out[m] = [2]int64{int64(owned[m][i][0]), int64(owned[m][i][1])}
	}
	return out
}

func cloneModel(t *kruskal.Tensor) *kruskal.Tensor {
	out := &kruskal.Tensor{Factors: cloneMats(t.Factors)}
	if t.Lambda != nil {
		out.Lambda = append([]float64(nil), t.Lambda...)
	}
	return out
}

func cloneMats(ms []*dense.Matrix) []*dense.Matrix {
	out := make([]*dense.Matrix, len(ms))
	for i, m := range ms {
		if m != nil {
			out[i] = m.Clone()
		}
	}
	return out
}

// modelMatches verifies a loaded checkpoint fits this job's shape.
func modelMatches(cp *kruskal.Checkpoint, dims []int, rank int) bool {
	if cp.Factors == nil || len(cp.Factors.Factors) != len(dims) {
		return false
	}
	for m, f := range cp.Factors.Factors {
		if f == nil || f.Rows != dims[m] || f.Cols != rank {
			return false
		}
	}
	return true
}
