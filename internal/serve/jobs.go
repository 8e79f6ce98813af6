package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aoadmm/internal/core"
	"aoadmm/internal/datasets"
	"aoadmm/internal/distnet"
	"aoadmm/internal/eval"
	"aoadmm/internal/faults"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/obs"
	"aoadmm/internal/ooc"
	"aoadmm/internal/perfmodel"
	"aoadmm/internal/prox"
	"aoadmm/internal/stats"
	"aoadmm/internal/stream"
	"aoadmm/internal/tensor"
)

// JobStatus is a job's lifecycle state. Transitions:
// queued -> running -> done|failed|canceled, running -> queued (retry with
// backoff after a transient failure), and queued -> canceled when a job is
// canceled (or the daemon shuts down) before a worker picks it up.
type JobStatus string

// Job lifecycle states.
const (
	JobQueued   JobStatus = "queued"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"
)

// JobSpec is the JSON body of POST /jobs: what to factorize and how.
// Exactly one of Dataset or TensorPath selects the input.
type JobSpec struct {
	// Dataset names a built-in proxy (reddit|nell|amazon|patents);
	// Scale sizes it (small|medium|large, default small).
	Dataset string `json:"dataset,omitempty"`
	Scale   string `json:"scale,omitempty"`
	// TensorPath reads a FROSTT .tns (or .aotn binary) file — or a sharded
	// .aoshard directory — on the daemon's filesystem instead. Shard
	// directories always run out-of-core.
	TensorPath string `json:"tensor_path,omitempty"`
	// MemBudgetMB caps the working memory of the factorization in MiB
	// (0 = unlimited). When the tensor's estimated in-memory footprint
	// exceeds the budget, the job is converted to shards under the data dir
	// and executed out-of-core. aoadmm and als only.
	MemBudgetMB int64 `json:"mem_budget_mb,omitempty"`
	// Name optionally labels the resulting model.
	Name string `json:"name,omitempty"`
	// Algo selects the solver: aoadmm (default) | als | hals.
	Algo string `json:"algo,omitempty"`
	// Rank is the CPD rank (required, > 0).
	Rank int `json:"rank"`
	// Constraint is a CLI-style spec ("nonneg", "nonneg+l1:0.1", ...;
	// ";"-separated for per-mode). Empty means unconstrained. AO-ADMM only.
	Constraint string `json:"constraint,omitempty"`
	// Variant is blocked (default) | base. AO-ADMM only.
	Variant string `json:"variant,omitempty"`
	// MaxOuterIters, Tol, Threads, BlockSize, Seed mirror core.Options
	// (zero values mean the library defaults).
	MaxOuterIters int     `json:"max_outer,omitempty"`
	Tol           float64 `json:"tol,omitempty"`
	Threads       int     `json:"threads,omitempty"`
	BlockSize     int     `json:"block_size,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	// ExploitSparsity enables §IV-C factor compression; Structure picks
	// dense|csr|hybrid|auto (default csr; names as core.ParseSpec).
	// AdaptiveRho enables per-block rho rebalancing. AO-ADMM only.
	ExploitSparsity bool   `json:"exploit_sparsity,omitempty"`
	Structure       string `json:"structure,omitempty"`
	AdaptiveRho     bool   `json:"adaptive_rho,omitempty"`
	// Format selects the MTTKRP kernel backend: csf (default) | alto | auto
	// (cost-model selection per tensor, or per shard when out-of-core).
	// In-process solvers only; distributed workers pick their own format.
	Format string `json:"format,omitempty"`
	// CollectMetrics records an aoadmm-metrics/v1 report served at /metrics
	// once the job finishes. Defaults to true; set to false explicitly to
	// skip the ~10-30% collection overhead.
	CollectMetrics *bool `json:"collect_metrics,omitempty"`
	// CheckpointEvery is the checkpoint interval in outer iterations
	// (default 5). Checkpoints make cancellation, daemon shutdown, and crash
	// recovery lossless.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// DistWorkers > 1 runs the job on the networked distributed engine
	// across up to that many connected workers (the daemon must run with
	// -role coordinator). The input is converted to shards if it is not one
	// already. AO-ADMM blocked variant only; see docs/DISTRIBUTED.md.
	DistWorkers int `json:"dist_workers,omitempty"`
	// Placement picks the distributed mode-0 decomposition: "even" row
	// ranges (default) or "shards" (nnz-balanced whole-shard runs).
	Placement string `json:"placement,omitempty"`
	// Trace records a merged multi-process execution trace of a distributed
	// job — coordinator phases plus every worker's shard loads and kernel
	// calls, correlated by the job id and aligned onto the coordinator's
	// clock — served as Chrome trace JSON at GET /jobs/{id}/trace.
	// Requires dist_workers > 1.
	Trace bool `json:"trace,omitempty"`
	// TimeoutSec is this job's wall-clock budget per attempt in seconds,
	// overriding the daemon-wide -job-timeout (0 = inherit the daemon
	// default). A timed-out job fails terminally.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// RefitModelID turns the job into a streaming refit of the named model's
	// lineage (docs/STREAMING.md): the input is the lineage's base tensor
	// plus its pending delta batches (decay-weighted, materialized to shards
	// out of core), the solver warm-starts from the live head's factors and
	// scaled duals, and the result registers as the next version. The
	// dataset/tensor_path, rank, constraint, and algo fields are inherited
	// from the lineage and must be unset; max_outer, tol, threads,
	// block_size, checkpoint_every, and timeout_sec still override.
	RefitModelID string `json:"refit_model_id,omitempty"`
}

func (s *JobSpec) collectMetrics() bool { return s.CollectMetrics == nil || *s.CollectMetrics }

// validate rejects specs that can never run. Input-dependent failures
// (unreadable tensor file, solver errors) surface when the job runs.
func (s *JobSpec) validate() error {
	if s.RefitModelID != "" {
		// A refit inherits its input, rank, constraint, and solver from the
		// lineage; only run-shaping knobs may be set alongside it.
		switch {
		case s.Dataset != "" || s.TensorPath != "":
			return fmt.Errorf("refit_model_id selects the input; don't pass dataset or tensor_path")
		case s.Rank != 0:
			return fmt.Errorf("refit_model_id inherits the lineage rank; don't pass rank")
		case s.Constraint != "":
			return fmt.Errorf("refit_model_id inherits the lineage constraint")
		case s.Algo != "" && s.Algo != "aoadmm":
			return fmt.Errorf("refits require algo aoadmm, got %q", s.Algo)
		case s.DistWorkers > 1:
			return fmt.Errorf("refits do not support dist_workers")
		case s.Trace:
			return fmt.Errorf("trace requires a distributed job (dist_workers > 1)")
		}
		if s.TimeoutSec < 0 {
			return fmt.Errorf("timeout_sec must be >= 0, got %v", s.TimeoutSec)
		}
		return nil
	}
	switch {
	case s.Dataset == "" && s.TensorPath == "":
		return fmt.Errorf("need dataset or tensor_path")
	case s.Dataset != "" && s.TensorPath != "":
		return fmt.Errorf("pass dataset or tensor_path, not both")
	}
	if s.Dataset != "" {
		if _, err := datasets.Get(s.Dataset); err != nil {
			return err
		}
		if _, err := parseScale(s.Scale); err != nil {
			return err
		}
	}
	if s.TensorPath != "" {
		// Fail fast at submission: a missing file or a directory that is not
		// a shard store would otherwise burn a worker attempt (and its
		// retries) before surfacing.
		fi, err := os.Stat(s.TensorPath)
		switch {
		case err != nil:
			return fmt.Errorf("tensor_path: %w", err)
		case fi.IsDir() && !ooc.IsShardDir(s.TensorPath):
			return fmt.Errorf("tensor_path %q is a directory but not a shard store (no %s)",
				s.TensorPath, ooc.HeaderFileName)
		case fi.IsDir() && s.Algo == "hals":
			return fmt.Errorf("algo hals does not support out-of-core execution (sharded tensor_path)")
		}
	}
	if s.Rank <= 0 {
		return fmt.Errorf("rank must be positive, got %d", s.Rank)
	}
	if s.TimeoutSec < 0 {
		return fmt.Errorf("timeout_sec must be >= 0, got %v", s.TimeoutSec)
	}
	if s.MemBudgetMB < 0 {
		return fmt.Errorf("mem_budget_mb must be >= 0, got %d", s.MemBudgetMB)
	}
	switch s.Algo {
	case "", "aoadmm", "als", "hals":
	default:
		return fmt.Errorf("unknown algo %q (want aoadmm|als|hals)", s.Algo)
	}
	if _, _, err := core.ParseSpec(s.Variant, s.Structure); err != nil {
		return err
	}
	if err := perfmodel.CheckKernelFormat(s.Format); err != nil {
		return err
	}
	if s.Format != "" && s.DistWorkers > 1 {
		return fmt.Errorf("dist_workers does not support per-job format selection (workers pick their own kernel)")
	}
	if s.Constraint != "" {
		if _, err := parseConstraints(s.Constraint); err != nil {
			return err
		}
	}
	if s.DistWorkers < 0 {
		return fmt.Errorf("dist_workers must be >= 0, got %d", s.DistWorkers)
	}
	switch s.Placement {
	case "", distnet.PlacementEven, distnet.PlacementShards:
	default:
		return fmt.Errorf("unknown placement %q (want %q or %q)",
			s.Placement, distnet.PlacementEven, distnet.PlacementShards)
	}
	if s.DistWorkers > 1 {
		// The networked engine implements exactly the blocked AO-ADMM path
		// the paper distributes; everything else must fail at submission,
		// not after burning attempts.
		switch {
		case s.Algo != "" && s.Algo != "aoadmm":
			return fmt.Errorf("dist_workers requires algo aoadmm, got %q", s.Algo)
		case s.Variant == "base" || s.Variant == "baseline":
			return fmt.Errorf("dist_workers requires the blocked variant (the baseline needs per-inner-iteration allreduces)")
		case s.ExploitSparsity:
			return fmt.Errorf("dist_workers does not support exploit_sparsity")
		case s.AdaptiveRho:
			return fmt.Errorf("dist_workers does not support adaptive_rho")
		}
	} else if s.Placement != "" {
		return fmt.Errorf("placement requires dist_workers > 1")
	} else if s.Trace {
		return fmt.Errorf("trace requires dist_workers > 1 (single-process jobs have no cluster trace to merge)")
	}
	return nil
}

func parseScale(s string) (datasets.Scale, error) {
	switch s {
	case "", "small":
		return datasets.Small, nil
	case "medium":
		return datasets.Medium, nil
	case "large":
		return datasets.Large, nil
	default:
		return datasets.Small, fmt.Errorf("unknown scale %q", s)
	}
}

func parseConstraints(spec string) ([]prox.Operator, error) {
	return prox.ParseList(spec)
}

// Job is one factorization job. Mutable fields are guarded by mu; handlers
// read consistent snapshots via View.
type Job struct {
	mu sync.Mutex

	id        string
	spec      JobSpec
	status    JobStatus
	err       string
	errs      []string
	modelID   string
	relErr    float64
	outer     int
	converged bool
	ckptDir   string
	ckptErr   string
	attempt   int
	resumed   int

	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel context.CancelFunc
	report *stats.Report

	// trace is the merged multi-process execution trace of a distributed
	// job that ran with spec.Trace; served at GET /jobs/{id}/trace.
	trace []obs.ProcessTrace

	// resume holds checkpointed state recovered from disk; the next run of
	// this job warm-restarts from it instead of random factors.
	resume *kruskal.Checkpoint

	// refit carries the lineage bookkeeping a streaming refit resolved while
	// executing (parent, next version, delta provenance); the commit path
	// folds it into the registered meta and advances the stream state.
	refit *refitState

	// progress fans per-iteration trace points out to /jobs/{id}/progress
	// streams; set at construction, never nil for manager-owned jobs.
	progress *progressBroker
}

// JobView is the JSON shape of a job as returned by the API — and the record
// type the write-ahead journal persists at every state transition.
type JobView struct {
	ID     string  `json:"id"`
	Spec   JobSpec `json:"spec"`
	Status string  `json:"status"`
	Error  string  `json:"error,omitempty"`
	// Errors is the full per-attempt error chain of a retried job, oldest
	// first ("attempt 1: ...").
	Errors []string `json:"errors,omitempty"`
	// Attempt is the current (or final) run attempt, 1-based once a worker
	// has picked the job up.
	Attempt int `json:"attempt,omitempty"`
	// ModelID is set once a successful job's model is registered.
	ModelID string `json:"model_id,omitempty"`
	// RelErr/OuterIters/Converged summarize the fit (final or partial).
	RelErr     float64 `json:"rel_err,omitempty"`
	OuterIters int     `json:"outer_iters,omitempty"`
	Converged  bool    `json:"converged,omitempty"`
	// CheckpointDir points at the last checkpoint of a canceled job.
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	// CheckpointErr reports a checkpoint save failure during the run (the
	// run itself may still have finished; see core.Result.CheckpointErr).
	CheckpointErr string `json:"checkpoint_err,omitempty"`
	// ResumedFromIter is the checkpoint iteration a crash-recovered run
	// warm-restarted from (0 = started fresh).
	ResumedFromIter int   `json:"resumed_from_iter,omitempty"`
	SubmittedUnixNs int64 `json:"submitted_unix_ns,omitempty"`
	StartedUnixNs   int64 `json:"started_unix_ns,omitempty"`
	FinishedUnixNs  int64 `json:"finished_unix_ns,omitempty"`
}

// Trace returns the job's merged distributed execution trace, or nil when
// the job did not run with spec.Trace (or has not finished an epoch yet).
func (j *Job) Trace() []obs.ProcessTrace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *Job) viewLocked() JobView {
	v := JobView{
		ID: j.id, Spec: j.spec, Status: string(j.status), Error: j.err,
		Errors:  append([]string(nil), j.errs...),
		Attempt: j.attempt, ModelID: j.modelID, RelErr: j.relErr,
		OuterIters: j.outer, Converged: j.converged,
		CheckpointDir: j.ckptDir, CheckpointErr: j.ckptErr,
		ResumedFromIter: j.resumed,
	}
	if !j.submitted.IsZero() {
		v.SubmittedUnixNs = j.submitted.UnixNano()
	}
	if !j.started.IsZero() {
		v.StartedUnixNs = j.started.UnixNano()
	}
	if !j.finished.IsZero() {
		v.FinishedUnixNs = j.finished.UnixNano()
	}
	return v
}

// jobFromView reconstructs a job from a journal record at recovery.
func jobFromView(v JobView) *Job {
	j := &Job{
		id: v.ID, spec: v.Spec, status: JobStatus(v.Status), err: v.Error,
		errs:    append([]string(nil), v.Errors...),
		attempt: v.Attempt, modelID: v.ModelID, relErr: v.RelErr,
		outer: v.OuterIters, converged: v.Converged,
		ckptDir: v.CheckpointDir, ckptErr: v.CheckpointErr,
		resumed: v.ResumedFromIter,

		progress: newProgressBroker(),
	}
	if v.SubmittedUnixNs != 0 {
		j.submitted = time.Unix(0, v.SubmittedUnixNs)
	}
	if v.StartedUnixNs != 0 {
		j.started = time.Unix(0, v.StartedUnixNs)
	}
	if v.FinishedUnixNs != 0 {
		j.finished = time.Unix(0, v.FinishedUnixNs)
	}
	return j
}

// ManagerConfig sizes the job manager and its durability policies.
type ManagerConfig struct {
	// Workers is the worker-pool size (default 1 when <= 0).
	Workers int
	// QueueCap bounds jobs waiting for a worker (default 16).
	QueueCap int
	// MaxAttempts is the per-job attempt budget: a transiently failing job
	// is retried with exponential backoff until it has run MaxAttempts
	// times (default 3; 1 disables retries).
	MaxAttempts int
	// RetryBackoff is the base backoff before attempt 2 (default 500ms);
	// it doubles per attempt, capped at RetryBackoffMax (default 30s), with
	// ±25% jitter.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// JobTimeout is the default per-attempt wall-clock budget (0 = none);
	// JobSpec.TimeoutSec overrides it per job.
	JobTimeout time.Duration
	// Faults is the optional fault-injection registry shared with the
	// journal and the solvers; nil disables injection.
	Faults *faults.Injector
	// Dist is the networked distributed engine's coordinator; nil means
	// dist_workers job specs are rejected at submission.
	Dist *distnet.Coordinator
	// Stream is the streaming-ingestion store; nil means refit_model_id job
	// specs are rejected at submission.
	Stream *stream.Store
	// KeepVersions is the lineage retention policy applied on refit commit:
	// the newest N versions survive, pinned versions, the head and the root
	// always survive (default 3).
	KeepVersions int
	// OnRefitCommit fires after a refit's version swap: the lineage root,
	// the superseded head, the new head, and the GC'd version ids. The
	// server uses it to invalidate cached query results and count commits.
	OnRefitCommit func(root, oldHeadID, newHeadID string, gced []string)
	// OnRefitFailure fires when a refit job fails terminally.
	OnRefitFailure func(refitModelID string)
	// Logger receives structured job-lifecycle logs, scoped per job id.
	// Nil discards them.
	Logger *slog.Logger
}

func (c *ManagerConfig) fill() {
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 500 * time.Millisecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 30 * time.Second
	}
	if c.KeepVersions <= 0 {
		c.KeepVersions = 3
	}
}

// RecoveryReport summarizes what NewManager reconstructed from the journal.
type RecoveryReport struct {
	// Requeued counts queued jobs put back on the queue (exactly once each).
	Requeued int `json:"requeued"`
	// Resumed counts running jobs re-enqueued with a loadable checkpoint to
	// warm-restart from.
	Resumed int `json:"resumed"`
	// Restarted counts running jobs re-enqueued from scratch (no usable
	// checkpoint, or a non-checkpointing solver).
	Restarted int `json:"restarted"`
	// Adopted counts running jobs whose model was already registered (the
	// crash hit between commit and journal append); they complete as done
	// without re-running.
	Adopted int `json:"adopted"`
	// Terminal counts done/failed/canceled jobs restored for job history.
	Terminal int `json:"terminal"`
}

// Manager owns the job table, the bounded worker pool, and the durability
// machinery: every job transition is journaled before it takes effect,
// failures retry with exponential backoff up to an attempt budget, each
// attempt runs under an optional wall-clock timeout, and on construction the
// journal is replayed so queued jobs are re-enqueued and interrupted jobs
// resume from their last checkpoint.
type Manager struct {
	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string
	queue   chan *Job
	timers  map[string]*time.Timer
	closed  bool
	seq     int
	wg      sync.WaitGroup
	reg     *Registry
	dataDir string
	jnl     *Journal
	cfg     ManagerConfig
	faults  *faults.Injector
	dist    *distnet.Coordinator
	stream  *stream.Store
	log     *slog.Logger

	crashed  atomic.Bool
	retries  atomic.Int64
	timeouts atomic.Int64
	panics   atomic.Int64
	recovery RecoveryReport

	// Daemon-wide shard I/O aggregates across all out-of-core runs.
	oocRuns       atomic.Int64
	oocShardLoads atomic.Int64
	oocBytesRead  atomic.Int64
	oocStalls     atomic.Int64

	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// NewManager builds the manager: recovered journal views (from OpenJournal)
// are reconstructed first — queued jobs re-enqueued exactly once, running
// jobs resumed from their checkpoints — and then cfg.Workers workers start
// draining the queue.
func NewManager(reg *Registry, dataDir string, jnl *Journal, recovered []JobView, cfg ManagerConfig) *Manager {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		jobs:    make(map[string]*Job),
		timers:  make(map[string]*time.Timer),
		reg:     reg,
		dataDir: dataDir,
		jnl:     jnl,
		cfg:     cfg,
		faults:  cfg.Faults,
		dist:    cfg.Dist,
		stream:  cfg.Stream,
		log:     cfg.Logger,
		baseCtx: ctx, baseCancel: cancel,
	}
	// The channel is sized past QueueCap so recovery can always re-enqueue
	// every surviving job; Submit enforces QueueCap itself.
	m.queue = make(chan *Job, cfg.QueueCap+len(recovered))
	m.recover(recovered)
	if rec := m.recovery; rec.Requeued+rec.Resumed+rec.Restarted+rec.Adopted+rec.Terminal > 0 {
		m.log.Info("journal recovery", "requeued", rec.Requeued, "resumed", rec.Resumed,
			"restarted", rec.Restarted, "adopted", rec.Adopted, "terminal", rec.Terminal)
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for job := range m.queue {
				m.runJob(job)
			}
		}()
	}
	return m
}

// recover replays journal views into the job table before workers start.
// Nothing here can race: the queue has capacity for every recovered job and
// no worker is draining yet.
func (m *Manager) recover(views []JobView) {
	for _, v := range views {
		if v.ID == "" {
			continue
		}
		if n, ok := jobSeq(v.ID); ok && n > m.seq {
			m.seq = n
		}
		job := jobFromView(v)
		m.jobs[job.id] = job
		m.order = append(m.order, job.id)
		switch job.status {
		case JobDone, JobFailed, JobCanceled:
			m.recovery.Terminal++
			continue
		case JobRunning:
			// The crash window between model registration (the commit) and
			// the terminal journal record: if the model is already in the
			// registry, adopt it instead of re-running — re-running here is
			// what would duplicate models.
			if model, ok := m.reg.FindByJob(job.id); ok {
				job.status = JobDone
				job.modelID = model.Meta.ID
				job.relErr = model.Meta.RelErr
				job.outer = model.Meta.OuterIters
				job.converged = model.Meta.Converged
				job.finished = time.Now()
				m.recovery.Adopted++
				m.journalAppend(job.View())
				// An adopted refit crashed between the version swap and the
				// stream commit: re-commit the (idempotent) stream state so
				// the folded batches leave the pending set.
				if model.Meta.AsOfSeq > 0 {
					m.commitRefit(&refitState{
						Root:     model.Meta.RootID,
						ParentID: model.Meta.ParentID,
						AsOfSeq:  model.Meta.AsOfSeq,
					}, model)
				}
				continue
			}
			// Resume from the last checkpoint when one is loadable; a torn
			// or absent checkpoint means a fresh restart of the attempt.
			if ckpt, err := kruskal.LoadCheckpoint(m.checkpointDir(job.id)); err == nil {
				job.resume = ckpt
				m.recovery.Resumed++
			} else {
				m.recovery.Restarted++
			}
			job.status = JobQueued
		case JobQueued:
			m.recovery.Requeued++
		default:
			// Unknown state from a future journal version: don't guess.
			continue
		}
		m.journalAppend(job.View())
		m.queue <- job
	}
}

// jobSeq extracts the numeric suffix of a manager-assigned job id.
func jobSeq(id string) (int, bool) {
	if !strings.HasPrefix(id, "j") {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return 0, false
	}
	return n, true
}

// Crashed reports whether a simulated crash has torn the manager down.
func (m *Manager) Crashed() bool { return m.crashed.Load() }

// Recovery returns what the manager reconstructed from the journal.
func (m *Manager) Recovery() RecoveryReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovery
}

// journalAppend writes a view to the journal, tolerating a nil journal.
// Callers on the submit path check the error (durability gate); callers on
// transition paths record it and continue — a sick journal must not take
// down running work, it only degrades what a future restart can recover.
func (m *Manager) journalAppend(v JobView) error {
	return m.jnl.Append(v)
}

// Submit validates the spec, journals the job, and enqueues it, failing fast
// when the queue is full (the caller translates that to 503), the journal
// append fails (the durability guarantee would be silently void), or the
// manager is shut down.
func (m *Manager) Submit(spec JobSpec) (JobView, error) {
	if err := spec.validate(); err != nil {
		return JobView{}, err
	}
	if spec.DistWorkers > 1 && m.dist == nil {
		return JobView{}, fmt.Errorf("serve: dist_workers requires the daemon to run as a coordinator (-role coordinator)")
	}
	if spec.RefitModelID != "" {
		// Fail fast: a refit of a model with nothing to fold in (or of a
		// non-AO-ADMM model, which has no duals to warm-start) would burn
		// worker attempts before surfacing.
		if m.stream == nil {
			return JobView{}, fmt.Errorf("serve: streaming is not enabled")
		}
		head, ok := m.reg.Head(spec.RefitModelID)
		if !ok {
			return JobView{}, fmt.Errorf("serve: no model %s", spec.RefitModelID)
		}
		if head.Meta.Algo != "aoadmm" {
			return JobView{}, fmt.Errorf("serve: refits require an aoadmm model, %s is %s", head.Meta.ID, head.Meta.Algo)
		}
		snap, err := m.stream.Snapshot(head.Meta.RootID)
		if err != nil {
			return JobView{}, fmt.Errorf("serve: model %s has no streamed deltas (append first)", spec.RefitModelID)
		}
		if snap.PendingBatches == 0 {
			return JobView{}, fmt.Errorf("serve: lineage %s has no pending delta batches", head.Meta.RootID)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobView{}, fmt.Errorf("serve: shutting down")
	}
	if len(m.queue) >= m.cfg.QueueCap {
		return JobView{}, ErrQueueFull
	}
	m.seq++
	job := &Job{
		id:        fmt.Sprintf("j%06d", m.seq),
		spec:      spec,
		status:    JobQueued,
		submitted: time.Now(),
		progress:  newProgressBroker(),
	}
	// Write-ahead: the job exists once it is journaled. On append failure
	// the submission is rejected and nothing ran.
	if err := m.journalAppend(job.View()); err != nil {
		m.seq--
		return JobView{}, err
	}
	m.queue <- job
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.log.Info("job submitted", "job", job.id, "algo", algoName(spec.Algo),
		"rank", spec.Rank, "queue_depth", len(m.queue))
	return job.View(), nil
}

// ErrQueueFull reports a Submit rejected because the queue is at capacity.
var ErrQueueFull = fmt.Errorf("serve: job queue full")

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns all job views in submission order.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]JobView, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.Get(id); ok {
			out = append(out, j.View())
		}
	}
	return out
}

// QueueDepth returns the number of jobs waiting for a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// StatusCounts tallies jobs by status.
func (m *Manager) StatusCounts() map[string]int {
	counts := make(map[string]int)
	for _, v := range m.List() {
		counts[v.Status]++
	}
	return counts
}

// DurabilityStats reports the journal and retry counters for /metrics.
func (m *Manager) DurabilityStats() map[string]any {
	path, appends, fails := m.jnl.Stats()
	m.mu.Lock()
	rec := m.recovery
	m.mu.Unlock()
	return map[string]any{
		"journal": map[string]any{
			"path": path, "appends": appends, "append_failures": fails,
		},
		"recovery":     rec,
		"retries":      m.retries.Load(),
		"timeouts":     m.timeouts.Load(),
		"panics":       m.panics.Load(),
		"max_attempts": m.cfg.MaxAttempts,
	}
}

// OOCStats reports the daemon-wide out-of-core counters for /metrics:
// completed streaming runs, shard loads, shard bytes read, prefetch stalls.
func (m *Manager) OOCStats() map[string]int64 {
	return map[string]int64{
		"runs":            m.oocRuns.Load(),
		"shard_loads":     m.oocShardLoads.Load(),
		"shard_bytes":     m.oocBytesRead.Load(),
		"prefetch_stalls": m.oocStalls.Load(),
	}
}

// Cancel stops a job: a queued job is marked canceled before it runs; a
// running job's context is canceled, stopping the solver at the next outer
// iteration boundary (its partial factors are checkpointed). Canceling a
// finished job is a no-op.
func (m *Manager) Cancel(id string) (JobView, error) {
	j, ok := m.Get(id)
	if !ok {
		return JobView{}, fmt.Errorf("serve: no job %s", id)
	}
	j.mu.Lock()
	var terminal *JobView
	switch j.status {
	case JobQueued:
		j.status = JobCanceled
		j.finished = time.Now()
		v := j.viewLocked()
		terminal = &v
	case JobRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	if terminal != nil {
		m.journalAppend(*terminal)
	}
	return j.View(), nil
}

// Reports returns the aoadmm-metrics/v1 report of every finished job that
// collected one, keyed by job id.
func (m *Manager) Reports() map[string]*stats.Report {
	out := make(map[string]*stats.Report)
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	for _, id := range ids {
		j, ok := m.Get(id)
		if !ok {
			continue
		}
		j.mu.Lock()
		if j.report != nil {
			out[id] = j.report
		}
		j.mu.Unlock()
	}
	return out
}

// Shutdown drains the service: no new submissions, still-queued jobs are
// marked canceled, running jobs receive a cancellation (the solvers stop at
// the next outer iteration and their partial factors are checkpointed under
// the data dir), and workers are awaited up to grace. Every terminal
// transition is journaled, so a subsequent start recovers a clean slate.
func (m *Manager) Shutdown(grace time.Duration) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.queue)
	timers := m.timers
	m.timers = map[string]*time.Timer{}
	m.mu.Unlock()
	m.log.Info("manager shutting down", "grace", grace)

	// Jobs parked in retry backoff never reach a worker again: stop their
	// timers and cancel them here.
	for id, tm := range timers {
		tm.Stop()
		if j, ok := m.Get(id); ok {
			j.mu.Lock()
			if j.status == JobQueued {
				j.status = JobCanceled
				j.finished = time.Now()
				v := j.viewLocked()
				j.mu.Unlock()
				m.journalAppend(v)
			} else {
				j.mu.Unlock()
			}
		}
	}

	// Cancel every running job's context (queued jobs flip to canceled as
	// workers drain them; see runJob's cancellation path).
	m.baseCancel()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
	}
	m.jnl.Close()
}

// Crash simulates a kill -9 for chaos tests: solvers are stopped and workers
// awaited, but no job-state transition is recorded and no journal record is
// written — whatever the journal said last is what recovery will see. The
// manager is unusable afterwards; reopen the data dir with a fresh Manager
// to exercise recovery.
func (m *Manager) Crash() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.crashed.Store(true)
	close(m.queue)
	timers := m.timers
	m.timers = map[string]*time.Timer{}
	m.mu.Unlock()
	for _, tm := range timers {
		tm.Stop()
	}
	m.baseCancel()
	m.wg.Wait()
	m.jnl.Close()
}

// crashAsync is the in-band crash triggered by an armed fault point: the
// worker that hit it returns immediately while a goroutine tears the manager
// down (Crash waits on the worker pool, so it cannot run on the worker).
func (m *Manager) crashAsync() {
	m.crashed.Store(true)
	go m.Crash()
}

// checkpointDir is where a job's in-flight factors are checkpointed.
func (m *Manager) checkpointDir(jobID string) string {
	return filepath.Join(m.dataDir, "checkpoints", jobID)
}

// backoff computes the retry delay before the given (1-based) next attempt:
// base doubled per completed attempt, capped, with ±25% jitter so retry
// storms decorrelate.
func (m *Manager) backoff(nextAttempt int) time.Duration {
	d := m.cfg.RetryBackoff
	for i := 2; i < nextAttempt; i++ {
		d *= 2
		if d >= m.cfg.RetryBackoffMax {
			d = m.cfg.RetryBackoffMax
			break
		}
	}
	if d > m.cfg.RetryBackoffMax {
		d = m.cfg.RetryBackoffMax
	}
	jitter := 0.75 + 0.5*rand.Float64()
	return time.Duration(float64(d) * jitter)
}

// requeueLater schedules a retry after the backoff delay. The job stays
// visible as queued; cancellation during backoff wins over the retry.
func (m *Manager) requeueLater(job *Job, delay time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.timers[job.id] = time.AfterFunc(delay, func() {
		m.mu.Lock()
		delete(m.timers, job.id)
		if m.closed {
			m.mu.Unlock()
			return
		}
		job.mu.Lock()
		ok := job.status == JobQueued
		job.mu.Unlock()
		if ok && len(m.queue) < cap(m.queue) {
			m.queue <- job
		}
		m.mu.Unlock()
	})
}

// runJob executes one attempt of a job end to end on a worker goroutine.
func (m *Manager) runJob(job *Job) {
	if m.crashed.Load() {
		return
	}
	timeout := m.cfg.JobTimeout
	job.mu.Lock()
	if job.status != JobQueued {
		// Canceled (or shutdown-drained) before a worker got to it.
		job.mu.Unlock()
		return
	}
	job.status = JobRunning
	job.started = time.Now()
	job.attempt++
	if job.spec.TimeoutSec > 0 {
		timeout = time.Duration(job.spec.TimeoutSec * float64(time.Second))
	}
	spec := job.spec
	attempt := job.attempt
	resume := job.resume
	if resume != nil && resume.Meta != nil {
		job.resumed = resume.Meta.Iteration
	}
	runningView := job.viewLocked()
	job.mu.Unlock()

	lg := m.log.With("job", job.id, "attempt", attempt)
	lg.Info("job started", "algo", algoName(spec.Algo), "rank", spec.Rank,
		"resumed_from_iter", runningView.ResumedFromIter)

	ctx, cancel := context.WithCancel(m.baseCtx)
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, timeout)
	}
	defer cancel()
	job.mu.Lock()
	job.cancel = cancel
	job.mu.Unlock()

	m.journalAppend(runningView)
	res, err := m.executeAttempt(ctx, job.id, attempt, spec, resume)
	if m.crashed.Load() {
		// A simulated crash landed while this attempt ran: the process of
		// record stops here, exactly as if the power had gone out.
		return
	}

	// A context stop is either a user/shutdown cancellation or the job's
	// wall-clock timeout; the latter is a terminal failure.
	timedOut := ctx.Err() == context.DeadlineExceeded
	if err == nil && res.Stopped && timedOut {
		err = fmt.Errorf("job exceeded wall-clock timeout %s at outer iteration %d", timeout, res.OuterIters)
	}
	if timedOut {
		m.timeouts.Add(1)
	}

	job.mu.Lock()
	job.finished = time.Now()
	job.cancel = nil
	if err != nil {
		job.errs = append(job.errs, fmt.Sprintf("attempt %d: %v", attempt, err))
		job.err = err.Error()
		retryable := !timedOut && !errors.Is(err, context.Canceled)
		if retryable && attempt < m.cfg.MaxAttempts {
			job.status = JobQueued
			v := job.viewLocked()
			job.mu.Unlock()
			m.retries.Add(1)
			backoff := m.backoff(attempt + 1)
			lg.Warn("job attempt failed, retrying", "error", err, "backoff", backoff)
			m.journalAppend(v)
			m.requeueLater(job, backoff)
			return
		}
		job.status = JobFailed
		v := job.viewLocked()
		job.mu.Unlock()
		lg.Error("job failed", "error", err, "timed_out", timedOut)
		m.journalAppend(v)
		if spec.RefitModelID != "" && m.cfg.OnRefitFailure != nil {
			m.cfg.OnRefitFailure(spec.RefitModelID)
		}
		return
	}

	defer job.mu.Unlock()
	job.resume = nil
	job.relErr = res.RelErr
	job.outer = res.OuterIters
	job.converged = res.Converged
	if res.CheckpointErr != nil {
		job.ckptErr = res.CheckpointErr.Error()
	}
	if spec.collectMetrics() {
		job.report = res.Metrics.Report()
	}
	ckpt := m.checkpointDir(job.id)
	if res.Stopped {
		job.status = JobCanceled
		// Final checkpoint with full resume state (factors + duals + meta)
		// so the canceled job's progress is recoverable — and a daemon
		// shutdown leaves resumable state behind for the next start.
		saveErr := kruskal.SaveCheckpointAtomic(ckpt, kruskal.Checkpoint{
			Factors: res.Factors,
			Duals:   res.Duals,
			Meta: &kruskal.CheckpointMeta{
				Iteration: res.OuterIters, RelErr: res.RelErr,
				JobID: job.id, Attempt: attempt,
				SavedUnixNano: time.Now().UnixNano(),
			},
		})
		if saveErr == nil {
			job.ckptDir = ckpt
		} else {
			job.ckptErr = saveErr.Error()
		}
		lg.Info("job canceled", "outer_iters", res.OuterIters,
			"rel_err", res.RelErr, "checkpoint", job.ckptDir)
		m.journalAppend(job.viewLocked())
		return
	}

	// Commit: register the model, then journal the terminal state. The two
	// crash fault points bracket the registration — recovery must re-run a
	// job lost before the commit and adopt (not re-run) one lost after it.
	if err := m.faults.Fire(faults.CrashBeforeCommit); err != nil {
		m.crashAsync()
		return
	}
	meta := ModelMeta{
		Name:            spec.Name,
		JobID:           job.id,
		Algo:            algoName(spec.Algo),
		Constraint:      spec.Constraint,
		RelErr:          res.RelErr,
		OuterIters:      res.OuterIters,
		Converged:       res.Converged,
		FactorDensities: res.FactorDensities,
	}
	if rs := job.refit; rs != nil {
		// A refit registers as the lineage's next version, inheriting the
		// family identity and recording the delta provenance.
		meta.Algo = "aoadmm"
		meta.Constraint = rs.Constraint
		if meta.Name == "" {
			meta.Name = rs.Name
		}
		meta.Version = rs.Version
		meta.ParentID = rs.ParentID
		meta.RootID = rs.Root
		meta.AsOfSeq = rs.AsOfSeq
		meta.DeltaBatches = rs.Batches
		meta.DeltaNNZ = rs.DeltaNNZ
		// Per-mode aligned drift against the parent version: how far this
		// refit moved the factors, up to column permutation and scaling.
		if parent, ok := m.reg.Get(rs.ParentID); ok {
			if d, derr := eval.FactorDrift(parent.K, res.Factors); derr == nil {
				meta.Drift = d
			} else {
				lg.Warn("factor drift unavailable", "parent", rs.ParentID, "error", derr)
			}
		}
	}
	model, regErr := m.reg.RegisterModel(meta, res.Factors, res.Duals, job.report)
	if regErr != nil {
		job.errs = append(job.errs, fmt.Sprintf("attempt %d: register model: %v", attempt, regErr))
		job.status = JobFailed
		job.err = fmt.Sprintf("register model: %v", regErr)
		lg.Error("job failed", "error", regErr)
		m.journalAppend(job.viewLocked())
		if spec.RefitModelID != "" && m.cfg.OnRefitFailure != nil {
			m.cfg.OnRefitFailure(spec.RefitModelID)
		}
		return
	}
	if err := m.faults.Fire(faults.CrashAfterCommit); err != nil {
		m.crashAsync()
		return
	}
	if rs := job.refit; rs != nil {
		m.commitRefit(rs, model)
	}
	job.status = JobDone
	job.modelID = model.Meta.ID
	lg.Info("job done", "model", model.Meta.ID, "rel_err", res.RelErr,
		"outer_iters", res.OuterIters, "converged", res.Converged)
	m.journalAppend(job.viewLocked())
	os.RemoveAll(ckpt)
}

func algoName(a string) string {
	if a == "" {
		return "aoadmm"
	}
	return a
}

// executeAttempt wraps execute with panic containment: an injected (or real)
// worker panic becomes a retryable job error instead of taking the daemon
// down.
func (m *Manager) executeAttempt(ctx context.Context, jobID string, attempt int, spec JobSpec, resume *kruskal.Checkpoint) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			m.panics.Add(1)
			res, err = nil, fmt.Errorf("worker panic: %v", p)
		}
	}()
	if ferr := m.faults.Fire(faults.WorkerRun); ferr != nil {
		return nil, ferr
	}
	return m.execute(ctx, jobID, attempt, spec, resume)
}

// execute loads the input tensor and runs the requested solver with the
// job's cancellation context, checkpointing, and (for AO-ADMM) any recovered
// resume state wired in. When the input is a shard directory — or the memory
// budget admits it out-of-core — the streaming engines run instead, and the
// shard I/O counters are folded into the daemon-wide aggregates.
func (m *Manager) execute(ctx context.Context, jobID string, attempt int, spec JobSpec, resume *kruskal.Checkpoint) (*core.Result, error) {
	if spec.RefitModelID != "" {
		res, err := m.executeRefit(ctx, jobID, attempt, spec, resume)
		if err == nil && res.OOC != nil {
			m.oocRuns.Add(1)
			m.oocShardLoads.Add(res.OOC.ShardLoads)
			m.oocBytesRead.Add(res.OOC.ShardBytesRead)
			m.oocStalls.Add(res.OOC.PrefetchStalls)
		}
		return res, err
	}
	x, sharded, cleanup, err := m.resolveSpecTensor(spec, jobID)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	res, err := m.runSolver(ctx, jobID, attempt, spec, resume, x, sharded)
	if err == nil && res.OOC != nil {
		m.oocRuns.Add(1)
		m.oocShardLoads.Add(res.OOC.ShardLoads)
		m.oocBytesRead.Add(res.OOC.ShardBytesRead)
		m.oocStalls.Add(res.OOC.PrefetchStalls)
	}
	return res, err
}

// resolveSpecTensor applies the admission rule to a job's input: shard
// directories stream as-is; file and dataset inputs are loaded and, when the
// estimated in-memory footprint exceeds the job's budget, converted to shards
// under dataDir/shards/<jobID> (removed again by cleanup).
func (m *Manager) resolveSpecTensor(spec JobSpec, jobID string) (x *tensor.COO, st *ooc.ShardedTensor, cleanup func(), err error) {
	cleanup = func() {}
	if spec.TensorPath != "" && ooc.IsShardDir(spec.TensorPath) {
		st, err = ooc.Open(spec.TensorPath)
		return nil, st, cleanup, err
	}
	x, err = loadSpecTensor(spec)
	if err != nil {
		return nil, nil, cleanup, err
	}
	budget := spec.MemBudgetMB << 20
	// Distributed jobs always run from shards: placement is defined over the
	// shard directory's mode-0 ranges and workers load their spans from disk,
	// so an in-core admission decision is overridden here.
	if spec.DistWorkers <= 1 && !ooc.Decide(x.Order(), int64(x.NNZ()), budget).OutOfCore {
		return x, nil, cleanup, nil
	}
	if spec.Algo == "hals" {
		return nil, nil, cleanup, fmt.Errorf(
			"mem_budget_mb %d forces out-of-core execution, which algo hals does not support", spec.MemBudgetMB)
	}
	dir := filepath.Join(m.dataDir, "shards", jobID)
	os.RemoveAll(dir) // a retried attempt reconverts from scratch
	cleanup = func() { os.RemoveAll(dir) }
	st, err = ooc.ConvertCOO(x, dir, ooc.ConvertOptions{MemBudgetBytes: budget})
	if err != nil {
		cleanup()
		return nil, nil, func() {}, err
	}
	return nil, st, cleanup, nil
}

// runSolver dispatches to the requested solver, choosing the in-memory or
// streaming engine by which input form resolveSpecTensor produced.
func (m *Manager) runSolver(ctx context.Context, jobID string, attempt int, spec JobSpec, resume *kruskal.Checkpoint, x *tensor.COO, sharded *ooc.ShardedTensor) (*core.Result, error) {
	every := spec.CheckpointEvery
	if every <= 0 {
		every = 5
	}
	// Live progress: every solver publishes its per-iteration trace point to
	// the job's broker, feeding GET /jobs/{id}/progress.
	var publish func(stats.TracePoint) bool
	if j, ok := m.Get(jobID); ok {
		pb := j.progress
		publish = func(p stats.TracePoint) bool {
			pb.publish(p)
			return true
		}
	}
	switch spec.Algo {
	case "als":
		alsOpts := core.ALSOptions{
			Rank: spec.Rank, MaxOuterIters: spec.MaxOuterIters, Tol: spec.Tol,
			Threads: spec.Threads, Seed: spec.Seed, Ridge: 1e-10,
			MemBudgetBytes: spec.MemBudgetMB << 20,
			CollectMetrics: spec.collectMetrics(), Ctx: ctx,
			OnIteration: publish, KernelFormat: spec.Format,
		}
		if sharded != nil {
			return core.FactorizeALSOOC(sharded, alsOpts)
		}
		return core.FactorizeALS(x, alsOpts)
	case "hals":
		if sharded != nil {
			return nil, fmt.Errorf("algo hals does not support out-of-core execution")
		}
		return core.FactorizeHALS(x, core.HALSOptions{
			Rank: spec.Rank, MaxOuterIters: spec.MaxOuterIters, Tol: spec.Tol,
			Threads: spec.Threads, Seed: spec.Seed,
			CollectMetrics: spec.collectMetrics(), Ctx: ctx,
			OnIteration: publish, KernelFormat: spec.Format,
		})
	default:
		if spec.DistWorkers > 1 {
			return m.runDistSolver(ctx, jobID, spec, resume, sharded, publish, every)
		}
		variant, structure, err := core.ParseSpec(spec.Variant, spec.Structure)
		if err != nil {
			return nil, err
		}
		opts := core.Options{
			Rank: spec.Rank, MaxOuterIters: spec.MaxOuterIters, Tol: spec.Tol,
			Threads: spec.Threads, BlockSize: spec.BlockSize, Seed: spec.Seed,
			Variant: variant, Structure: structure,
			ExploitSparsity:   spec.ExploitSparsity,
			AdaptiveRho:       spec.AdaptiveRho,
			KernelFormat:      spec.Format,
			MemBudgetBytes:    spec.MemBudgetMB << 20,
			CollectMetrics:    spec.collectMetrics(),
			CheckpointDir:     m.checkpointDir(jobID),
			CheckpointEvery:   every,
			CheckpointJobID:   jobID,
			CheckpointAttempt: attempt,
			Faults:            m.faults,
			Ctx:               ctx,
			OnIteration:       publish,
		}
		if resume != nil {
			// Warm-restart from the recovered checkpoint: factors + duals +
			// the iteration/relerr anchors, completing the loop the core's
			// InitFactors machinery supports. The iteration budget is shared
			// across the interruption, not restarted.
			opts.InitFactors = resume.Factors
			opts.InitDuals = resume.Duals
			if resume.Meta != nil {
				opts.StartIter = resume.Meta.Iteration
				opts.PrevRelErr = resume.Meta.RelErr
			}
		}
		if spec.Constraint != "" {
			cs, err := parseConstraints(spec.Constraint)
			if err != nil {
				return nil, err
			}
			opts.Constraints = cs
		}
		if sharded != nil {
			return core.FactorizeOOC(sharded, opts)
		}
		return core.Factorize(x, opts)
	}
}

// runDistSolver hands an aoadmm job to the networked distributed engine and
// maps its result back into the core.Result shape the job machinery expects.
// resolveSpecTensor guarantees sharded is non-nil for dist_workers > 1.
func (m *Manager) runDistSolver(ctx context.Context, jobID string, spec JobSpec, resume *kruskal.Checkpoint, sharded *ooc.ShardedTensor, publish func(stats.TracePoint) bool, every int) (*core.Result, error) {
	if sharded == nil {
		return nil, fmt.Errorf("serve: distributed job %s resolved to an in-core tensor", jobID)
	}
	// JobOptions treats Tol <= 0 as "never stop early" (the simulator's
	// convention); a serve job with tol omitted must instead get the same
	// default stopping rule core.Factorize applies.
	tol := spec.Tol
	if tol <= 0 {
		tol = core.DefaultTol
	}
	res, err := m.dist.RunJob(distnet.JobOptions{
		JobID:           jobID,
		ShardDir:        sharded.Dir(),
		Rank:            spec.Rank,
		Constraint:      spec.Constraint,
		MaxOuterIters:   spec.MaxOuterIters,
		Tol:             tol,
		BlockSize:       spec.BlockSize,
		Threads:         spec.Threads,
		Seed:            spec.Seed,
		Workers:         spec.DistWorkers,
		WaitForWorkers:  spec.DistWorkers,
		Placement:       spec.Placement,
		CheckpointDir:   m.checkpointDir(jobID),
		CheckpointEvery: every,
		Resume:          resume,
		Trace:           spec.Trace,
		Ctx:             ctx,
		OnIteration:     publish,
	})
	if err != nil {
		return nil, err
	}
	if spec.Trace {
		if j, ok := m.Get(jobID); ok {
			j.mu.Lock()
			j.trace = res.Trace
			j.mu.Unlock()
		}
	}
	m.log.Info("distributed job finished", "job", jobID,
		"workers", res.Workers, "epochs", res.Epochs,
		"reassignments", res.Reassignments,
		"collective_bytes", res.Comm.Total(),
		"wire_sent", res.WireBytesSent, "wire_recv", res.WireBytesReceived)
	return &core.Result{
		Factors:    res.Factors,
		Duals:      res.Duals,
		RelErr:     res.RelErr,
		OuterIters: res.OuterIters,
		Converged:  res.Converged,
		Stopped:    res.Stopped,
	}, nil
}

// refitState is the lineage bookkeeping a refit attempt resolves before the
// solver runs: who the new version descends from, which seq it is trained as
// of, and the delta provenance recorded in its meta.
type refitState struct {
	Root       string
	Name       string
	Constraint string
	ParentID   string
	Version    int
	AsOfSeq    int64
	Batches    int
	DeltaNNZ   int64
}

// commitRefit finishes a refit's version swap after the model is registered:
// the stream state advances (idempotently — a recovery re-commit of an
// adopted model is a no-op), the retention policy prunes superseded
// versions, and the server's commit hook fires (cache invalidation,
// counters). Called with job.mu held on the runJob path; it takes neither
// m.mu nor job.mu itself.
func (m *Manager) commitRefit(rs *refitState, model *Model) {
	if m.stream != nil {
		advanced, err := m.stream.Commit(rs.Root, rs.AsOfSeq)
		if err != nil {
			// The model is registered and serving; a failed stream commit only
			// means the folded batches stay pending and the next refit re-folds
			// them (decay-weighted the same way). Log, don't fail the job.
			m.log.Warn("stream commit failed", "lineage", rs.Root,
				"as_of", rs.AsOfSeq, "error", err)
		}
		// Drift history rides the commit: only a commit that actually
		// advanced records an entry, so a recovery re-commit of an adopted
		// refit never duplicates one.
		if advanced && len(model.Meta.Drift) > 0 {
			if derr := m.stream.RecordDrift(rs.Root, model.Meta.ID, rs.AsOfSeq, model.Meta.Drift); derr != nil {
				m.log.Warn("drift record failed", "lineage", rs.Root, "error", derr)
			}
		}
	}
	gced := m.reg.GCVersions(model.Meta.ID, m.cfg.KeepVersions)
	if len(gced) > 0 {
		m.log.Info("lineage retention gc", "lineage", rs.Root,
			"keep", m.cfg.KeepVersions, "removed", gced)
	}
	if m.cfg.OnRefitCommit != nil {
		m.cfg.OnRefitCommit(rs.Root, rs.ParentID, model.Meta.ID, gced)
	}
}

// RefitInFlight reports the id of a queued or running refit job covering the
// given lineage root, if any. The refit triggers use it as their dedupe; it
// is deliberately stateless (a scan of the job table) so it stays correct
// across crash recovery, which reconstructs the table before workers start.
func (m *Manager) RefitInFlight(root string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		st, target := j.status, j.spec.RefitModelID
		j.mu.Unlock()
		if target == "" || (st != JobQueued && st != JobRunning) {
			continue
		}
		if tm, ok := m.reg.Get(target); ok {
			if tm.Meta.RootID == root {
				return id, true
			}
		} else if target == root {
			// Target version GC'd since submission; fall back to comparing
			// the id itself (roots are never GC'd out of their own lineage
			// while a head exists, but be conservative).
			return id, true
		}
	}
	return "", false
}

// refitBaseSource resolves the base tensor a refit folds deltas over: the
// lineage's last materialized generation when one exists (so decay
// accumulates multiplicatively across refits), otherwise the original
// training source recorded at lineage creation. Shard-backed bases stream
// one shard at a time; file/dataset bases load once, matching the footprint
// of the original training job.
func (m *Manager) refitBaseSource(snap stream.Snapshot) (stream.Source, error) {
	if snap.BaseGenDir != "" {
		st, err := ooc.Open(snap.BaseGenDir)
		if err != nil {
			return nil, fmt.Errorf("serve: lineage %s base generation: %w", snap.Root, err)
		}
		return stream.ShardSource{T: st}, nil
	}
	if len(snap.SourceSpec) == 0 {
		return nil, fmt.Errorf("serve: lineage %s has no recorded source spec", snap.Root)
	}
	var src JobSpec
	if err := json.Unmarshal(snap.SourceSpec, &src); err != nil {
		return nil, fmt.Errorf("serve: lineage %s source spec: %w", snap.Root, err)
	}
	if src.TensorPath != "" && ooc.IsShardDir(src.TensorPath) {
		st, err := ooc.Open(src.TensorPath)
		if err != nil {
			return nil, err
		}
		return stream.ShardSource{T: st}, nil
	}
	x, err := loadSpecTensor(src)
	if err != nil {
		return nil, err
	}
	return stream.COOSource{T: x}, nil
}

// executeRefit runs one attempt of a streaming refit: materialize the
// lineage's base plus pending decay-weighted deltas into a shard generation,
// then run the out-of-core AO-ADMM solver warm-started from the live head's
// factors and decay-scaled duals. The head's solver shaping (variant,
// structure, kernel format, rho policy) is inherited from the lineage's
// recorded source spec; the refit spec's run knobs override.
func (m *Manager) executeRefit(ctx context.Context, jobID string, attempt int, spec JobSpec, resume *kruskal.Checkpoint) (*core.Result, error) {
	if m.stream == nil {
		return nil, fmt.Errorf("serve: streaming is not enabled")
	}
	head, ok := m.reg.Head(spec.RefitModelID)
	if !ok {
		return nil, fmt.Errorf("serve: no model %s", spec.RefitModelID)
	}
	if head.Meta.Algo != "aoadmm" {
		return nil, fmt.Errorf("serve: refits require an aoadmm model, %s is %s", head.Meta.ID, head.Meta.Algo)
	}
	root := head.Meta.RootID
	snap, err := m.stream.Snapshot(root)
	if err != nil {
		return nil, err
	}
	base, err := m.refitBaseSource(snap)
	if err != nil {
		return nil, err
	}
	mat, err := m.stream.Materialize(root, base)
	if err != nil {
		return nil, fmt.Errorf("serve: materialize lineage %s: %w", root, err)
	}
	m.log.Info("refit input materialized", "job", jobID, "lineage", root,
		"as_of", mat.AsOfSeq, "batches", mat.Batches, "delta_nnz", mat.DeltaNNZ,
		"base_scale", mat.BaseScale, "gen", mat.Dir)

	// The lineage's recorded training spec shapes the solver; zero-valued on
	// pre-stream lineages, which simply means library defaults.
	var src JobSpec
	if len(snap.SourceSpec) > 0 {
		if err := json.Unmarshal(snap.SourceSpec, &src); err != nil {
			return nil, fmt.Errorf("serve: lineage %s source spec: %w", root, err)
		}
	}
	pick := func(override, inherited int) int {
		if override != 0 {
			return override
		}
		return inherited
	}
	every := pick(spec.CheckpointEvery, src.CheckpointEvery)
	if every <= 0 {
		every = 5
	}
	format := spec.Format
	if format == "" {
		format = src.Format
	}
	var publish func(stats.TracePoint) bool
	if j, ok := m.Get(jobID); ok {
		pb := j.progress
		publish = func(p stats.TracePoint) bool {
			pb.publish(p)
			return true
		}
	}
	variant, structure, err := core.ParseSpec(src.Variant, src.Structure)
	if err != nil {
		return nil, err
	}
	opts := core.Options{
		Rank:              head.K.Rank(),
		Variant:           variant,
		Structure:         structure,
		MaxOuterIters:     pick(spec.MaxOuterIters, src.MaxOuterIters),
		Tol:               spec.Tol,
		Threads:           pick(spec.Threads, src.Threads),
		BlockSize:         pick(spec.BlockSize, src.BlockSize),
		Seed:              spec.Seed,
		ExploitSparsity:   src.ExploitSparsity,
		AdaptiveRho:       src.AdaptiveRho,
		KernelFormat:      format,
		MemBudgetBytes:    spec.MemBudgetMB << 20,
		CollectMetrics:    spec.collectMetrics(),
		CheckpointDir:     m.checkpointDir(jobID),
		CheckpointEvery:   every,
		CheckpointJobID:   jobID,
		CheckpointAttempt: attempt,
		Faults:            m.faults,
		Ctx:               ctx,
		OnIteration:       publish,
	}
	if spec.Tol == 0 {
		opts.Tol = src.Tol
	}
	if head.Meta.Constraint != "" {
		cs, err := parseConstraints(head.Meta.Constraint)
		if err != nil {
			return nil, fmt.Errorf("serve: lineage constraint %q: %w", head.Meta.Constraint, err)
		}
		opts.Constraints = cs
	}
	if resume != nil {
		// A crash-recovered refit attempt resumes its own checkpoint; the
		// checkpointed duals already carry the base scale from the first run.
		opts.InitFactors = resume.Factors
		opts.InitDuals = resume.Duals
		if resume.Meta != nil {
			opts.StartIter = resume.Meta.Iteration
			opts.PrevRelErr = resume.Meta.RelErr
		}
	} else {
		// The warm start that makes incremental refits cheap: the live head's
		// factors seed the outer loop, and its converged duals — scaled by the
		// same decay the base tensor faded by — seed the ADMM state. The
		// iteration budget starts fresh (StartIter 0): convergence from a warm
		// start is what the budget measures.
		opts.InitFactors = head.K
		opts.InitDuals = head.Duals
		opts.DualScale = mat.BaseScale
	}

	if j, ok := m.Get(jobID); ok {
		j.mu.Lock()
		j.refit = &refitState{
			Root:       root,
			Name:       head.Meta.Name,
			Constraint: head.Meta.Constraint,
			ParentID:   head.Meta.ID,
			Version:    head.Meta.Version + 1,
			AsOfSeq:    mat.AsOfSeq,
			Batches:    mat.Batches,
			DeltaNNZ:   mat.DeltaNNZ,
		}
		j.mu.Unlock()
	}
	return core.FactorizeOOC(mat.Tensor, opts)
}

func loadSpecTensor(spec JobSpec) (*tensor.COO, error) {
	if spec.Dataset != "" {
		scale, err := parseScale(spec.Scale)
		if err != nil {
			return nil, err
		}
		return datasets.Generate(spec.Dataset, scale)
	}
	if strings.HasSuffix(spec.TensorPath, ".aotn") {
		return tensor.LoadBinaryFile(spec.TensorPath)
	}
	return tensor.LoadTNSFile(spec.TensorPath)
}
