package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aoadmm/internal/distnet"
	"aoadmm/internal/faults"
	"aoadmm/internal/kruskal"
	obspkg "aoadmm/internal/obs"
	"aoadmm/internal/prox"
	"aoadmm/internal/stats"
	"aoadmm/internal/stream"
)

// Config sizes the service.
type Config struct {
	// DataDir is the daemon's persistent root: models live under
	// DataDir/models, in-flight checkpoints under DataDir/checkpoints.
	DataDir string
	// Workers is the factorization worker-pool size (default 2). Each worker
	// runs one job at a time; jobs themselves parallelize over Threads.
	Workers int
	// QueueCap bounds the number of queued jobs (default 16); submissions
	// beyond it fail with 503 rather than queueing unboundedly.
	QueueCap int
	// RequestTimeout bounds each HTTP request (default 10s). Job execution
	// is asynchronous and not subject to it.
	RequestTimeout time.Duration
	// MaxAttempts, RetryBackoff, RetryBackoffMax, JobTimeout configure the
	// manager's durability policies; see ManagerConfig.
	MaxAttempts     int
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	JobTimeout      time.Duration
	// JournalPath overrides where the write-ahead job journal lives
	// (default DataDir/journal.jsonl).
	JournalPath string
	// Faults optionally injects failures at the durability hook points
	// (chaos tests); nil disables injection.
	Faults *faults.Injector
	// Dist, when non-nil, makes the daemon a distributed coordinator: jobs
	// with dist_workers > 1 run on it and its counters surface under the
	// /metrics "dist" section. Nil rejects such jobs at submission.
	Dist *distnet.Coordinator
	// Logger receives structured daemon logs (job lifecycle transitions,
	// recovery, shutdown). Nil discards them.
	Logger *slog.Logger
	// MaxTopK caps the K a top-K request may ask for (default 4096; a
	// request above it is rejected with 400 rather than building an
	// arbitrarily large heap per worker).
	MaxTopK int
	// QueryCacheSize is the top-K result cache capacity in entries
	// (default 1024; negative disables the cache).
	QueryCacheSize int
	// KeepVersions is the lineage retention policy applied when a streaming
	// refit commits: the newest N versions of the lineage survive, plus any
	// pinned version, the head and the root (default 3).
	KeepVersions int
	// RefitNNZ triggers an automatic refit once a lineage's pending delta
	// non-zeros reach this count (0 disables the nnz trigger).
	RefitNNZ int64
	// RefitStaleness triggers an automatic refit once a lineage's oldest
	// pending batch is older than this window (0 disables the staleness
	// trigger).
	RefitStaleness time.Duration
	// StreamDecay is the default per-batch exponential decay lambda in (0,1]
	// applied at refit: a batch appended s seqs before the refit's as-of seq
	// is weighted by lambda^s (default 1 = no decay). A lineage may override
	// it at creation via the first append's "decay" field.
	StreamDecay float64
	// RefitDrift enables the drift-aware refit trigger (0 disables it):
	// when a committed refit's mean per-mode factor drift is at or above
	// this threshold, the lineage is marked hot and the next append refits
	// eagerly (trigger "drift") instead of waiting for the nnz/staleness
	// policies; a low-drift lineage stays on the lazy policies.
	RefitDrift float64
}

// Server wires the registry, the job manager, and the query engine behind an
// HTTP/JSON API. See docs/SERVING.md for the full surface.
type Server struct {
	cfg     Config
	reg     *Registry
	mgr     *Manager
	stream  *stream.Store
	started time.Time

	queries      atomic.Int64
	queryErrors  atomic.Int64
	foldins      atomic.Int64
	idxScanned   atomic.Int64
	idxPruned    atomic.Int64
	queryLatency stats.LatencyHistogram
	cache        *queryCache
	batcher      *topKBatcher
	warnings     []string

	// Streaming refit counters: trigger submissions by reason, commits,
	// terminal failures, and versions removed by retention GC.
	refitNNZ       atomic.Int64
	refitStaleness atomic.Int64
	refitManual    atomic.Int64
	refitDrift     atomic.Int64
	refitCommits   atomic.Int64
	refitFailures  atomic.Int64
	versionsGCed   atomic.Int64

	// Factor-drift state per lineage root: the last committed refit's
	// per-mode drift (the aoadmm_stream_drift gauge) and whether it crossed
	// the Config.RefitDrift threshold (the eager-refit mark).
	driftMu     sync.Mutex
	driftLatest map[string][]float64
	driftHot    map[string]bool
}

// New opens (or creates) the data dir, reloads every persisted model,
// replays the write-ahead job journal (re-enqueueing queued jobs and
// resuming interrupted ones from their checkpoints), and starts the worker
// pool.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: DataDir required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.MaxTopK <= 0 {
		cfg.MaxTopK = 4096
	}
	if cfg.QueryCacheSize == 0 {
		cfg.QueryCacheSize = 1024
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	reg, warns, err := OpenRegistry(filepath.Join(cfg.DataDir, "models"))
	if err != nil {
		return nil, err
	}
	if cfg.JournalPath == "" {
		cfg.JournalPath = filepath.Join(cfg.DataDir, "journal.jsonl")
	}
	jnl, recovered, jwarns, err := OpenJournal(cfg.JournalPath, cfg.Faults)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		reg:         reg,
		started:     time.Now(),
		cache:       newQueryCache(cfg.QueryCacheSize),
		batcher:     newTopKBatcher(),
		driftLatest: make(map[string][]float64),
		driftHot:    make(map[string]bool),
	}
	for _, w := range warns {
		s.warnings = append(s.warnings, w.Error())
	}
	for _, w := range jwarns {
		s.warnings = append(s.warnings, w.Error())
	}
	// The stream store opens before the manager so recovery's idempotent
	// refit re-commits find their lineages; its trigger callback submits
	// through s.mgr, which triggerRefit nil-guards until workers exist.
	st, swarns, err := stream.Open(stream.Config{
		Dir:            filepath.Join(cfg.DataDir, "stream"),
		Decay:          cfg.StreamDecay,
		RefitNNZ:       cfg.RefitNNZ,
		RefitStaleness: cfg.RefitStaleness,
		Faults:         cfg.Faults,
		Logger:         cfg.Logger,
		OnTrigger:      func(root, reason string) { s.triggerRefit(root, reason) },
	})
	if err != nil {
		return nil, err
	}
	s.stream = st
	for _, w := range swarns {
		s.warnings = append(s.warnings, w.Error())
	}
	s.mgr = NewManager(reg, cfg.DataDir, jnl, recovered, ManagerConfig{
		Workers:         cfg.Workers,
		QueueCap:        cfg.QueueCap,
		MaxAttempts:     cfg.MaxAttempts,
		RetryBackoff:    cfg.RetryBackoff,
		RetryBackoffMax: cfg.RetryBackoffMax,
		JobTimeout:      cfg.JobTimeout,
		Faults:          cfg.Faults,
		Dist:            cfg.Dist,
		Stream:          st,
		KeepVersions:    cfg.KeepVersions,
		OnRefitCommit:   s.onRefitCommit,
		OnRefitFailure:  func(string) { s.refitFailures.Add(1) },
		Logger:          cfg.Logger,
	})
	return s, nil
}

// onRefitCommit is the manager's post-swap hook: the superseded head's and
// every GC'd version's cached query results are dropped (the satellite fix
// for the stale-cache bug: "follow latest" queries key the cache by the
// resolved head id, so the old head's entries must not survive its
// dethroning as reachable garbage) and the commit counters advance.
func (s *Server) onRefitCommit(root, oldHeadID, newHeadID string, gced []string) {
	s.cache.invalidateModel(oldHeadID)
	for _, id := range gced {
		s.cache.invalidateModel(id)
	}
	s.refitCommits.Add(1)
	s.versionsGCed.Add(int64(len(gced)))
	// Record the new head's factor drift: it feeds the per-lineage gauge
	// and, against the RefitDrift threshold, the eager-refit mark the next
	// append consults.
	if nm, ok := s.reg.Get(newHeadID); ok && len(nm.Meta.Drift) > 0 {
		mean := 0.0
		for _, d := range nm.Meta.Drift {
			mean += d
		}
		mean /= float64(len(nm.Meta.Drift))
		s.driftMu.Lock()
		s.driftLatest[root] = append([]float64(nil), nm.Meta.Drift...)
		s.driftHot[root] = s.cfg.RefitDrift > 0 && mean >= s.cfg.RefitDrift
		s.driftMu.Unlock()
	}
}

// driftSnapshot copies the per-lineage latest-drift map for the metrics
// exporters.
func (s *Server) driftSnapshot() map[string][]float64 {
	s.driftMu.Lock()
	defer s.driftMu.Unlock()
	out := make(map[string][]float64, len(s.driftLatest))
	for root, d := range s.driftLatest {
		out[root] = append([]float64(nil), d...)
	}
	return out
}

// lineageHot reports whether the lineage's last committed refit crossed the
// drift threshold.
func (s *Server) lineageHot(root string) bool {
	s.driftMu.Lock()
	defer s.driftMu.Unlock()
	return s.driftHot[root]
}

// triggerRefit is the policy engine's submission path: dedupe against an
// in-flight refit of the same lineage, then enqueue a warm-started refit job
// for its head.
func (s *Server) triggerRefit(root, reason string) {
	mgr := s.mgr
	if mgr == nil {
		// A staleness tick can fire between stream.Open and NewManager.
		return
	}
	if _, busy := mgr.RefitInFlight(root); busy {
		return
	}
	head, ok := s.reg.Head(root)
	if !ok {
		return
	}
	if _, err := mgr.Submit(JobSpec{RefitModelID: head.Meta.ID}); err != nil {
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("refit trigger rejected", "lineage", root,
				"reason", reason, "error", err)
		}
		return
	}
	s.countTrigger(reason)
}

func (s *Server) countTrigger(reason string) {
	switch reason {
	case stream.TriggerNNZ:
		s.refitNNZ.Add(1)
	case stream.TriggerStaleness:
		s.refitStaleness.Add(1)
	case stream.TriggerDrift:
		s.refitDrift.Add(1)
	default:
		s.refitManual.Add(1)
	}
}

// Registry exposes the model store (startup logging, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Warnings lists model directories skipped at startup.
func (s *Server) Warnings() []string { return append([]string(nil), s.warnings...) }

// Stream exposes the ingestion store (startup logging, tests).
func (s *Server) Stream() *stream.Store { return s.stream }

// Shutdown drains the job manager and closes the stream store; see
// Manager.Shutdown.
func (s *Server) Shutdown(grace time.Duration) {
	s.mgr.Shutdown(grace)
	s.stream.Close()
}

// Crash simulates an abrupt process death for chaos tests; see Manager.Crash.
// The stream store's handles are closed without flushing anything — every
// stream write is already fsync'd at append time, so this is exactly what a
// kill -9 leaves behind.
func (s *Server) Crash() {
	s.mgr.Crash()
	s.stream.Close()
}

// Recovery reports what the job manager reconstructed from the journal.
func (s *Server) Recovery() RecoveryReport { return s.mgr.Recovery() }

// Handler returns the service's HTTP handler. Every request is bounded by
// the configured timeout except GET /jobs/{id}/progress, which streams for
// the life of its job (and needs the http.Flusher that TimeoutHandler's
// buffered writer hides); it is routed around the timeout wrapper.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /models", s.handleModels)
	mux.HandleFunc("GET /models/{id}", s.handleModel)
	mux.HandleFunc("GET /models/{id}/entry", s.handleEntry)
	mux.HandleFunc("POST /models/{id}/topk", s.handleTopK)
	mux.HandleFunc("POST /models/{id}/foldin", s.handleFoldIn)
	mux.HandleFunc("POST /models/{id}/append", s.handleAppend)
	mux.HandleFunc("POST /models/{id}/refit", s.handleRefit)
	mux.HandleFunc("GET /models/{id}/lineage", s.handleLineage)
	mux.HandleFunc("POST /models/{id}/pin", s.handlePin)
	mux.HandleFunc("POST /models/{id}/unpin", s.handleUnpin)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	timed := http.TimeoutHandler(mux, s.cfg.RequestTimeout, `{"error":"request timed out"}`)
	outer := http.NewServeMux()
	outer.HandleFunc("GET /jobs/{id}/progress", s.handleProgress)
	// The merged trace of a large distributed job can outgrow the timeout
	// wrapper's buffered writer; it streams straight to the client like the
	// progress feed does.
	outer.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	outer.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// TimeoutHandler writes its timeout body with no Content-Type; the
		// wrapper defaults it to JSON, matching every endpoint behind it.
		timed.ServeHTTP(&jsonDefaultWriter{ResponseWriter: w}, r)
	}))
	return outer
}

// jsonDefaultWriter defaults the Content-Type to application/json at
// WriteHeader time when no handler set one. Handlers that do set a type
// (e.g. the Prometheus exposition) pass through untouched.
type jsonDefaultWriter struct {
	http.ResponseWriter
	wroteHeader bool
}

func (w *jsonDefaultWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.wroteHeader = true
		if w.Header().Get("Content-Type") == "" {
			w.Header().Set("Content-Type", "application/json")
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *jsonDefaultWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	path, appends, fails := s.mgr.jnl.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"models":         s.reg.Len(),
		"queue":          s.mgr.QueueDepth(),
		"jobs":           s.mgr.StatusCounts(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"go_version":     runtime.Version(),
		"vcs_revision":   vcsRevision(),
		"goroutines":     runtime.NumGoroutine(),
		"journal": map[string]any{
			"path": path, "appends": appends, "append_failures": fails,
		},
		"dist": s.distHealth(),
	})
}

// distHealth is the /healthz cluster-liveness section: one entry per
// connected worker with its last-heartbeat age, so an operator (or monitor)
// sees a wedged worker before a job does. Always present; enabled=false on
// a standalone daemon.
func (s *Server) distHealth() map[string]any {
	out := map[string]any{"enabled": s.cfg.Dist != nil}
	if s.cfg.Dist == nil {
		return out
	}
	now := time.Now().UnixNano()
	workers := []map[string]any{}
	for _, wi := range s.cfg.Dist.LiveWorkers() {
		entry := map[string]any{
			"id":    wi.ID,
			"name":  wi.Name,
			"addr":  wi.Addr,
			"alive": true,
		}
		if wi.LastSeenUnixNano > 0 {
			entry["last_heartbeat_age_seconds"] = float64(now-wi.LastSeenUnixNano) / 1e9
		}
		workers = append(workers, entry)
	}
	out["workers_live"] = len(workers)
	out["workers"] = workers
	return out
}

// vcsRevision reports the commit the binary was built from, when the build
// embedded VCS stamps (go build of a checkout does; go test binaries and
// stamp-less builds report "unknown").
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	view, err := s.mgr.Submit(spec)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrQueueFull) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.List()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// handleTrace serves the merged multi-process Chrome trace recorded by a
// distributed job submitted with "trace": true — coordinator phases plus
// every worker's local spans, aligned onto the coordinator's clock. Load it
// in chrome://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %s", id))
		return
	}
	procs := j.Trace()
	if len(procs) == 0 {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job %s has no recorded trace (submit with \"trace\": true and dist_workers > 1)", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obspkg.WriteChromeProcesses(w, procs, map[string]any{"job_id": id})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.reg.List()})
}

// resolveModel resolves a model id + version spec ("", "latest", "this",
// "pinned", "N", "vN") through the lineage registry, mapping resolution
// failures to an HTTP status.
func (s *Server) resolveModel(id, version string) (*Model, int, error) {
	m, err := s.reg.Resolve(id, version)
	if err != nil {
		if errors.Is(err, ErrNoModel) {
			return nil, http.StatusNotFound, err
		}
		return nil, http.StatusBadRequest, err
	}
	return m, http.StatusOK, nil
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	// The metadata endpoint defaults to the exact version named by the path
	// (inspecting an old version must not silently show the head);
	// ?version=latest opts into following the lineage.
	version := r.URL.Query().Get("version")
	if version == "" {
		version = "this"
	}
	m, status, err := s.resolveModel(r.PathValue("id"), version)
	if err != nil {
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, m.Meta)
}

// handleEntry reconstructs one tensor entry: GET /models/{id}/entry?at=i,j,k.
func (s *Server) handleEntry(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// Queries follow the lineage head by default; ?version=this|pinned|N
	// pins one (docs/STREAMING.md).
	m, status, err := s.resolveModel(r.PathValue("id"), r.URL.Query().Get("version"))
	if err != nil {
		s.recordQueryError(start)
		writeError(w, status, err)
		return
	}
	coord, err := parseCoord(r.URL.Query().Get("at"), m.K.Dims())
	if err != nil {
		s.recordQueryError(start)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	val := m.K.At(coord)
	s.recordQuery(start)
	writeJSON(w, http.StatusOK, map[string]any{
		"model": m.Meta.ID, "coord": coord, "value": val,
	})
}

func parseCoord(raw string, dims []int) ([]int, error) {
	if raw == "" {
		return nil, fmt.Errorf("missing at=i,j,... query parameter")
	}
	parts := strings.Split(raw, ",")
	if len(parts) != len(dims) {
		return nil, fmt.Errorf("coordinate has %d indices, model order is %d", len(parts), len(dims))
	}
	coord := make([]int, len(parts))
	for m, p := range parts {
		i, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("index %d: %v", m, err)
		}
		if i < 0 || i >= dims[m] {
			return nil, fmt.Errorf("index %d out of range for mode %d (length %d)", i, m, dims[m])
		}
		coord[m] = i
	}
	return coord, nil
}

// topKRequest is the JSON body of POST /models/{id}/topk.
type topKRequest struct {
	// Anchors maps mode index (JSON keys are strings) to a fixed row index.
	Anchors map[string]int `json:"anchors"`
	// TargetMode is the mode whose rows are ranked.
	TargetMode int `json:"target_mode"`
	// K is the number of matches to return; capped by Config.MaxTopK.
	K int `json:"k"`
	// Threads requests a kernel worker count (0 = daemon default). Clamped
	// server-side to GOMAXPROCS — the client does not get to size the
	// daemon's goroutine spend.
	Threads int `json:"threads,omitempty"`
	// Version selects the lineage version to query: "latest" (default, the
	// empty string), "this", "pinned", or a version number. The response's
	// model field reports the concrete version that served.
	Version string `json:"version,omitempty"`
}

// clampQueryThreads bounds a client-supplied worker count to the daemon's
// scheduler width. The kernel's own par.Threads only clamps low, so without
// this a request could demand an arbitrary goroutine count.
func clampQueryThreads(n int) int {
	ceil := runtime.GOMAXPROCS(0)
	if n <= 0 || n > ceil {
		return ceil
	}
	return n
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req topKRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.recordQueryError(start)
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad topk request: %w", err))
		return
	}
	// Resolve after decoding: the body's version field selects the concrete
	// model, and the cache below keys on the resolved id — which is the
	// mechanism that keeps "follow latest" results from outliving a refit.
	m, status, err := s.resolveModel(r.PathValue("id"), req.Version)
	if err != nil {
		s.recordQueryError(start)
		writeError(w, status, err)
		return
	}
	if req.K > s.cfg.MaxTopK {
		s.recordQueryError(start)
		writeError(w, http.StatusBadRequest, fmt.Errorf("k %d exceeds the daemon cap %d", req.K, s.cfg.MaxTopK))
		return
	}
	if req.K <= 0 {
		s.recordQueryError(start)
		writeError(w, http.StatusBadRequest, fmt.Errorf("k must be positive, got %d", req.K))
		return
	}
	if req.TargetMode < 0 || req.TargetMode >= m.K.Order() {
		s.recordQueryError(start)
		writeError(w, http.StatusBadRequest, fmt.Errorf("target mode %d out of range for order %d", req.TargetMode, m.K.Order()))
		return
	}
	anchors := make(map[int]int, len(req.Anchors))
	for k, v := range req.Anchors {
		mode, err := strconv.Atoi(k)
		if err != nil {
			s.recordQueryError(start)
			writeError(w, http.StatusBadRequest, fmt.Errorf("anchor mode %q: %v", k, err))
			return
		}
		anchors[mode] = v
	}

	key := topKCacheKey(m.Meta.ID, anchors, req.TargetMode, req.K)
	if matches, ok := s.cache.get(key); ok {
		s.recordQuery(start)
		writeJSON(w, http.StatusOK, map[string]any{
			"model":       m.Meta.ID,
			"target_mode": req.TargetMode,
			"matches":     matches,
			"cached":      true,
		})
		return
	}

	var ixStats kruskal.IndexStats
	q := kruskal.Query{
		Anchors:    anchors,
		TargetMode: req.TargetMode,
		K:          req.K,
		Threads:    clampQueryThreads(req.Threads),
		TargetLeaf: m.Leaf(req.TargetMode),
		Index:      m.Index(req.TargetMode),
		Stats:      &ixStats,
	}
	// Validate before entering the batcher: a bad query must fail alone,
	// never as part of a shared batch.
	if _, err := m.K.QueryWeights(q); err != nil {
		s.recordQueryError(start)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	matches, err := s.batcher.do(m, q)
	if err != nil {
		s.recordQueryError(start)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.cache.put(key, matches)
	s.idxScanned.Add(int64(ixStats.Scanned))
	s.idxPruned.Add(int64(ixStats.Pruned))
	s.recordQuery(start)
	writeJSON(w, http.StatusOK, map[string]any{
		"model":       m.Meta.ID,
		"target_mode": req.TargetMode,
		"matches":     matches,
	})
}

func (s *Server) recordQuery(start time.Time) {
	s.queries.Add(1)
	s.queryLatency.Observe(time.Since(start))
}

// recordQueryError makes failed queries visible: they count toward the
// error counter and still contribute latency, so error-rate and tail
// alerting see them.
func (s *Server) recordQueryError(start time.Time) {
	s.queryErrors.Add(1)
	s.queryLatency.Observe(time.Since(start))
}

// Fold-in resource caps: a fold-in builds an observations × rank design
// matrix and runs an iterative solve inside the request timeout, so both
// dimensions are bounded server-side.
const (
	maxFoldInObservations = 65536
	maxFoldInIters        = 10000
)

// foldInRequest is the JSON body of POST /models/{id}/foldin.
type foldInRequest struct {
	// Mode is the mode the new entity belongs to.
	Mode int `json:"mode"`
	// Observations are the known entries; see kruskal.FoldInObservation
	// (coords keyed by mode index as JSON strings).
	Observations []foldInObservation `json:"observations"`
	// Constraint overrides the model's constraint spec for the solve; nil
	// uses the model's own (the factor the row joins was fitted under it).
	Constraint *string `json:"constraint,omitempty"`
	// MaxIters / Tol tune the ADMM solve (0 = defaults).
	MaxIters int     `json:"max_iters,omitempty"`
	Tol      float64 `json:"tol,omitempty"`
	// TargetMode, when non-nil, also ranks that mode's rows for the folded
	// entity and returns the top K matches.
	TargetMode *int `json:"target_mode,omitempty"`
	K          int  `json:"k,omitempty"`
	Threads    int  `json:"threads,omitempty"`
	// Version selects the lineage version to fold into ("latest" by
	// default); see topKRequest.Version.
	Version string `json:"version,omitempty"`
}

// foldInObservation mirrors kruskal.FoldInObservation with string JSON keys
// (JSON objects cannot have integer keys).
type foldInObservation struct {
	Coords map[string]int `json:"coords"`
	Value  float64        `json:"value"`
}

// foldInOperator resolves the constraint spec for the folded mode: a
// ";"-separated spec is per-mode, a bare spec applies to every mode.
func foldInOperator(spec string, mode, order int) (prox.Operator, error) {
	ops, err := parseConstraints(spec)
	if err != nil {
		return nil, err
	}
	if len(ops) == 1 {
		return ops[0], nil
	}
	if len(ops) != order {
		return nil, fmt.Errorf("constraint spec has %d modes, model order is %d", len(ops), order)
	}
	return ops[mode], nil
}

func (s *Server) handleFoldIn(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req foldInRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.recordQueryError(start)
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad foldin request: %w", err))
		return
	}
	m, status, err := s.resolveModel(r.PathValue("id"), req.Version)
	if err != nil {
		s.recordQueryError(start)
		writeError(w, status, err)
		return
	}
	if len(req.Observations) == 0 {
		s.recordQueryError(start)
		writeError(w, http.StatusBadRequest, fmt.Errorf("foldin needs at least one observation"))
		return
	}
	if len(req.Observations) > maxFoldInObservations {
		s.recordQueryError(start)
		writeError(w, http.StatusBadRequest, fmt.Errorf("%d observations exceed the daemon cap %d", len(req.Observations), maxFoldInObservations))
		return
	}
	if req.MaxIters > maxFoldInIters {
		s.recordQueryError(start)
		writeError(w, http.StatusBadRequest, fmt.Errorf("max_iters %d exceeds the daemon cap %d", req.MaxIters, maxFoldInIters))
		return
	}
	obs := make([]kruskal.FoldInObservation, len(req.Observations))
	for o, ob := range req.Observations {
		coords := make(map[int]int, len(ob.Coords))
		for k, v := range ob.Coords {
			mode, err := strconv.Atoi(k)
			if err != nil {
				s.recordQueryError(start)
				writeError(w, http.StatusBadRequest, fmt.Errorf("observation %d: coord mode %q: %v", o, k, err))
				return
			}
			coords[mode] = v
		}
		obs[o] = kruskal.FoldInObservation{Coords: coords, Value: ob.Value}
	}

	spec := m.Meta.Constraint
	if req.Constraint != nil {
		spec = *req.Constraint
	}
	op, err := foldInOperator(spec, req.Mode, m.K.Order())
	if err != nil {
		s.recordQueryError(start)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := m.K.FoldIn(obs, kruskal.FoldInOptions{
		Mode:     req.Mode,
		Operator: op,
		MaxIters: req.MaxIters,
		Tol:      req.Tol,
	})
	if err != nil {
		s.recordQueryError(start)
		writeError(w, http.StatusBadRequest, err)
		return
	}

	resp := map[string]any{
		"model":      m.Meta.ID,
		"mode":       req.Mode,
		"row":        res.Row,
		"iters":      res.Iters,
		"converged":  res.Converged,
		"constraint": op.Name(),
	}
	if req.TargetMode != nil {
		tm := *req.TargetMode
		if tm == req.Mode {
			s.recordQueryError(start)
			writeError(w, http.StatusBadRequest, fmt.Errorf("target mode %d is the fold mode", tm))
			return
		}
		k := req.K
		if k <= 0 {
			k = 10
		}
		if k > s.cfg.MaxTopK {
			s.recordQueryError(start)
			writeError(w, http.StatusBadRequest, fmt.Errorf("k %d exceeds the daemon cap %d", k, s.cfg.MaxTopK))
			return
		}
		weights, err := m.K.RecommendWeights(res.Row)
		if err != nil {
			s.recordQueryError(start)
			writeError(w, http.StatusBadRequest, err)
			return
		}
		var ixStats kruskal.IndexStats
		matches, err := m.K.TopK(kruskal.Query{
			Weights:    weights,
			TargetMode: tm,
			K:          k,
			Threads:    clampQueryThreads(req.Threads),
			TargetLeaf: m.Leaf(tm),
			Index:      m.Index(tm),
			Stats:      &ixStats,
		})
		if err != nil {
			s.recordQueryError(start)
			writeError(w, http.StatusBadRequest, err)
			return
		}
		s.idxScanned.Add(int64(ixStats.Scanned))
		s.idxPruned.Add(int64(ixStats.Pruned))
		resp["target_mode"] = tm
		resp["matches"] = matches
	}
	s.foldins.Add(1)
	s.recordQuery(start)
	writeJSON(w, http.StatusOK, resp)
}

// appendRequest is the JSON body of POST /models/{id}/append: one delta
// batch of coordinate/value pairs for the model's lineage.
type appendRequest struct {
	// Inds is the batch in mode-major layout: Inds[m][p] is the mode-m index
	// of the p-th non-zero (the .tns column convention, zero-based).
	Inds [][]int32 `json:"inds"`
	// Vals are the corresponding values; additive with whatever the lineage
	// already holds at the same coordinate.
	Vals []float64 `json:"vals"`
	// Decay optionally sets the lineage's decay lambda at creation (first
	// append); on an existing lineage it must match or be omitted.
	Decay float64 `json:"decay,omitempty"`
	// Refit requests an immediate refit after this batch lands, regardless
	// of the automatic triggers.
	Refit bool `json:"refit,omitempty"`
}

// handleAppend ingests a delta batch into the model's lineage, creating the
// lineage on first use. The batch is fsync'd into the delta journal before
// the request returns; materialization into refit input happens later, out
// of core, when a refit runs.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	m, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no model %s", r.PathValue("id")))
		return
	}
	if m.Meta.Algo != "aoadmm" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("model %s is %s; streaming refits require aoadmm (no duals to warm-start otherwise)", m.Meta.ID, m.Meta.Algo))
		return
	}
	var req appendRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad append request: %w", err))
		return
	}
	root := m.Meta.RootID
	if _, exists := s.stream.Get(root); !exists {
		// First append: record the lineage's base — the root version's
		// training spec — so a refit can re-stream the original tensor under
		// the decay weighting. Without it no refit could ever run, so fail
		// the append now rather than poison the lineage.
		spec, err := s.rootSourceSpec(root)
		if err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		rm, _ := s.reg.Get(root)
		if rm == nil {
			rm = m
		}
		if _, err := s.stream.Ensure(root, rm.K.Dims(), req.Decay, spec); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	} else if req.Decay != 0 {
		// Validate the decay against the existing lineage (mismatch is 400).
		if _, err := s.stream.Ensure(root, m.K.Dims(), req.Decay, nil); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	res, err := s.stream.Append(root, req.Inds, req.Vals)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, stream.ErrNoLineage) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	resp := map[string]any{
		"lineage":         root,
		"seq":             res.Seq,
		"pending_batches": res.PendingBatches,
		"pending_nnz":     res.PendingNNZ,
		"triggered":       res.Triggered,
	}
	// Drift-aware policy: a lineage whose last refit moved the factors past
	// the threshold refits eagerly on new data; a low-drift lineage keeps
	// accumulating under the lazy nnz/staleness policies.
	if s.cfg.RefitDrift > 0 && s.lineageHot(root) {
		s.triggerRefit(root, stream.TriggerDrift)
		resp["drift_triggered"] = true
	}
	if req.Refit {
		s.triggerRefit(root, stream.TriggerManual)
		if jobID, busy := s.mgr.RefitInFlight(root); busy {
			resp["refit_job"] = jobID
		}
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// rootSourceSpec recovers the training spec of a lineage's root version from
// the job table, stripped to the input + solver shaping a refit reuses.
func (s *Server) rootSourceSpec(root string) (json.RawMessage, error) {
	rm, ok := s.reg.Get(root)
	if !ok {
		return nil, fmt.Errorf("lineage root %s is no longer registered", root)
	}
	j, ok := s.mgr.Get(rm.Meta.JobID)
	if !ok {
		return nil, fmt.Errorf("model %s's training job %s is not in the journal; cannot stream against an unknown base", root, rm.Meta.JobID)
	}
	spec := j.View().Spec
	spec.Name = ""
	spec.RefitModelID = ""
	return json.Marshal(spec)
}

// refitRequest is the JSON body of POST /models/{id}/refit. All fields are
// optional run-shaping overrides; the input, rank, and constraint come from
// the lineage.
type refitRequest struct {
	MaxOuter        int     `json:"max_outer,omitempty"`
	Tol             float64 `json:"tol,omitempty"`
	Threads         int     `json:"threads,omitempty"`
	BlockSize       int     `json:"block_size,omitempty"`
	CheckpointEvery int     `json:"checkpoint_every,omitempty"`
	TimeoutSec      float64 `json:"timeout_sec,omitempty"`
}

// handleRefit submits an explicit warm-started refit of the model's lineage:
// 202 with the job view, or 409 when one is already queued or running.
func (s *Server) handleRefit(w http.ResponseWriter, r *http.Request) {
	m, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no model %s", r.PathValue("id")))
		return
	}
	var req refitRequest
	if r.ContentLength != 0 {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad refit request: %w", err))
			return
		}
	}
	if jobID, busy := s.mgr.RefitInFlight(m.Meta.RootID); busy {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": "a refit of this lineage is already in flight",
			"job":   jobID,
		})
		return
	}
	view, err := s.mgr.Submit(JobSpec{
		RefitModelID:    m.Meta.ID,
		MaxOuterIters:   req.MaxOuter,
		Tol:             req.Tol,
		Threads:         req.Threads,
		BlockSize:       req.BlockSize,
		CheckpointEvery: req.CheckpointEvery,
		TimeoutSec:      req.TimeoutSec,
	})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrQueueFull) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	s.countTrigger(stream.TriggerManual)
	writeJSON(w, http.StatusAccepted, view)
}

// handleLineage returns the model's full version chain (oldest first) plus
// the live streaming state of its delta journal, when one exists.
func (s *Server) handleLineage(w http.ResponseWriter, r *http.Request) {
	metas, ok := s.reg.Lineage(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no model %s", r.PathValue("id")))
		return
	}
	root := metas[0].RootID
	resp := map[string]any{
		"root":     root,
		"versions": metas,
	}
	if head, ok := s.reg.Head(root); ok {
		resp["head"] = head.Meta.ID
	}
	if snap, err := s.stream.Snapshot(root); err == nil {
		st := map[string]any{
			"decay":           snap.Decay,
			"applied_seq":     snap.AppliedSeq,
			"latest_seq":      snap.LatestSeq,
			"pending_batches": snap.PendingBatches,
			"pending_nnz":     snap.PendingNNZ,
		}
		if hist, err := s.stream.DriftHistory(root); err == nil && len(hist) > 0 {
			st["drift"] = hist
		}
		resp["stream"] = st
	}
	if jobID, busy := s.mgr.RefitInFlight(root); busy {
		resp["refit_in_flight"] = jobID
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePin(w http.ResponseWriter, r *http.Request)   { s.setPinned(w, r, true) }
func (s *Server) handleUnpin(w http.ResponseWriter, r *http.Request) { s.setPinned(w, r, false) }

// setPinned marks a concrete version as retention-exempt (or clears the
// mark): pinned versions survive keep-last-N GC and are addressable via
// version="pinned".
func (s *Server) setPinned(w http.ResponseWriter, r *http.Request, pinned bool) {
	m, err := s.reg.SetPinned(r.PathValue("id"), pinned)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNoModel) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, m.Meta)
}

// handleMetrics serves the daemon counters plus every finished job's
// aoadmm-metrics/v1 report as JSON; ?format=prometheus switches to the
// Prometheus text exposition format (see prom.go).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		s.writePrometheus(w)
		return
	}
	cacheHits, cacheMisses := s.cache.stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"daemon": map[string]any{
			"jobs":          s.mgr.StatusCounts(),
			"queue_depth":   s.mgr.QueueDepth(),
			"models":        s.reg.Len(),
			"queries":       s.queries.Load(),
			"query_errors":  s.queryErrors.Load(),
			"foldins":       s.foldins.Load(),
			"query_latency": s.queryLatency.Snapshot(),
			"workers":       s.cfg.Workers,
			"topk_cache": map[string]any{
				"capacity": s.cfg.QueryCacheSize,
				"entries":  s.cache.len(),
				"hits":     cacheHits,
				"misses":   cacheMisses,
			},
			"topk_batch": map[string]any{
				"batches":         s.batcher.batches.Load(),
				"batched_queries": s.batcher.batchedQueries.Load(),
			},
			"topk_index": map[string]any{
				"clusters_scanned": s.idxScanned.Load(),
				"clusters_pruned":  s.idxPruned.Load(),
			},
		},
		"durability": s.mgr.DurabilityStats(),
		"ooc":        s.mgr.OOCStats(),
		"dist":       s.distStats(),
		"stream":     s.streamStats(),
		"jobs":       s.mgr.Reports(),
	})
}

// streamStats builds the /metrics "stream" section. Like "dist", the schema
// is always present — zeroed counters on a daemon that never saw an append —
// so dashboards and smoke checks can rely on it.
func (s *Server) streamStats() map[string]any {
	st := s.stream.Stats()
	return map[string]any{
		"lineages":        st.Lineages,
		"appends":         st.Appends,
		"append_nnz":      st.AppendNNZ,
		"pending_batches": st.PendingBatches,
		"pending_nnz":     st.PendingNNZ,
		"keep_versions":   s.mgr.cfg.KeepVersions,
		"refit_triggers": map[string]int64{
			stream.TriggerNNZ:       s.refitNNZ.Load(),
			stream.TriggerStaleness: s.refitStaleness.Load(),
			stream.TriggerManual:    s.refitManual.Load(),
			stream.TriggerDrift:     s.refitDrift.Load(),
		},
		"refit_commits":   s.refitCommits.Load(),
		"refit_failures":  s.refitFailures.Load(),
		"versions_gced":   s.versionsGCed.Load(),
		"drift_threshold": s.cfg.RefitDrift,
		"drift":           s.driftSnapshot(),
	}
}

// distStats builds the /metrics "dist" section. The section is always
// present — a standalone daemon reports enabled=false with zeroed counters —
// so dashboards and smoke checks can rely on the schema.
func (s *Server) distStats() map[string]any {
	out := map[string]any{
		"enabled": s.cfg.Dist != nil,
	}
	var st distnet.Stats
	var workers []distnet.WorkerInfo
	if s.cfg.Dist != nil {
		st = s.cfg.Dist.Stats()
		workers = s.cfg.Dist.LiveWorkers()
		out["listen_addr"] = s.cfg.Dist.Addr()
	}
	if workers == nil {
		workers = []distnet.WorkerInfo{}
	}
	out["workers_live"] = st.WorkersLive
	out["workers"] = workers
	out["jobs_total"] = st.JobsTotal
	out["reassignments"] = st.Reassignments
	out["heartbeat_misses"] = st.HeartbeatMisses
	out["epochs"] = st.Epochs
	out["wire_bytes"] = map[string]int64{
		"sent": st.WireBytesSent, "received": st.WireBytesReceived,
	}
	out["collectives"] = map[string]int64{
		"mttkrp_bytes": st.Collectives.MTTKRPBytes,
		"factor_bytes": st.Collectives.FactorBytes,
		"gram_bytes":   st.Collectives.GramBytes,
		"admm_bytes":   st.Collectives.ADMMBytes,
		"messages":     st.Collectives.Messages,
	}
	return out
}
