// Command aoadmmd is the AO-ADMM factorization daemon: an HTTP/JSON service
// that runs factorization jobs through a bounded worker pool, persists fitted
// models in an on-disk registry, and answers low-latency queries (entry
// reconstruction, top-K completion) over them.
//
// Usage:
//
//	aoadmmd -addr :8642 -data /var/lib/aoadmmd
//
// The daemon can also run as one node of a networked distributed cluster
// (docs/DISTRIBUTED.md):
//
//	aoadmmd -role coordinator -worker-listen :7077          # daemon + coordinator
//	aoadmmd -role worker -coordinator-addr host:7077        # compute worker, no HTTP
//
// See docs/SERVING.md for the API surface and a curl quick-start, and
// docs/OBSERVABILITY.md for logging, metrics scraping, and profiling. Jobs
// are durable: every state transition is written to a fsync'd journal under
// the data dir, so a daemon killed at any instant — SIGKILL included —
// restarts with queued jobs re-enqueued and interrupted jobs resumed from
// their last checkpoint. The daemon shuts down gracefully on SIGINT/SIGTERM:
// queued jobs are canceled, running jobs are stopped at their next outer
// iteration and their partial factors checkpointed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aoadmm/internal/distnet"
	"aoadmm/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8642", "listen address")
		dataDir     = flag.String("data", "aoadmmd-data", "persistent data directory (models, checkpoints, journal)")
		workers     = flag.Int("workers", 2, "factorization worker-pool size")
		queueCap    = flag.Int("queue", 16, "max queued jobs before submissions get 503")
		reqTimeout  = flag.Duration("request-timeout", 10*time.Second, "per-request HTTP timeout")
		grace       = flag.Duration("grace", 30*time.Second, "shutdown grace period for in-flight jobs")
		maxAttempts = flag.Int("max-attempts", 3, "per-job attempt budget before a transient failure becomes terminal (1 disables retries)")
		retryBase   = flag.Duration("retry-backoff", 500*time.Millisecond, "base retry backoff, doubled per attempt with jitter")
		jobTimeout  = flag.Duration("job-timeout", 0, "default per-attempt wall-clock budget for jobs (0 = none; timeout_sec in a job spec overrides)")
		journal     = flag.String("journal", "", "write-ahead job journal path (default <data>/journal.jsonl)")
		logFormat   = flag.String("log-format", "text", "structured log format: text|json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty disables)")
		maxTopK     = flag.Int("max-topk", 4096, "largest k accepted by top-K and fold-in queries")
		queryCache  = flag.Int("query-cache", 1024, "top-K result cache capacity in entries (negative disables)")

		keepVersions   = flag.Int("keep-versions", 3, "lineage versions kept per model after a streaming refit (pinned versions and the root always survive; see docs/STREAMING.md)")
		refitNNZ       = flag.Int64("refit-nnz", 0, "pending delta non-zeros that trigger an automatic refit (0 disables)")
		refitStaleness = flag.Duration("refit-staleness", 0, "age of the oldest unapplied delta batch that triggers an automatic refit (0 disables)")
		streamDecay    = flag.Float64("stream-decay", 1, "default sliding-window decay lambda in (0,1] for new lineages; older delta batches are down-weighted by lambda^age")
		refitDrift     = flag.Float64("refit-drift", 0, "mean per-mode factor drift at which a lineage refits eagerly on the next append (0 disables the drift trigger; see docs/STREAMING.md)")

		role       = flag.String("role", "standalone", "daemon role: standalone|coordinator|worker (see docs/DISTRIBUTED.md)")
		coordAddr  = flag.String("coordinator-addr", "", "coordinator address a worker dials (role worker)")
		workerAddr = flag.String("worker-listen", ":7077", "TCP address the coordinator accepts workers on (role coordinator)")
		workerName = flag.String("worker-name", "", "worker display name reported to the coordinator (default the hostname)")
		workerFmt  = flag.String("worker-format", "", "MTTKRP kernel a worker compiles its shard range into: csf (default) | alto | auto (role worker; see docs/FORMATS.md)")
		hbInterval = flag.Duration("heartbeat-interval", time.Second, "worker heartbeat cadence the coordinator advertises")
		hbTimeout  = flag.Duration("heartbeat-timeout", 0, "silence after which the coordinator declares a worker dead (default 5x interval)")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aoadmmd:", err)
		os.Exit(1)
	}

	if *role == "worker" {
		if err := runWorker(*coordAddr, *workerName, *workerFmt, logger); err != nil {
			fmt.Fprintln(os.Stderr, "aoadmmd:", err)
			os.Exit(1)
		}
		return
	}

	cfg := serve.Config{
		DataDir:        *dataDir,
		Workers:        *workers,
		QueueCap:       *queueCap,
		RequestTimeout: *reqTimeout,
		MaxAttempts:    *maxAttempts,
		RetryBackoff:   *retryBase,
		JobTimeout:     *jobTimeout,
		JournalPath:    *journal,
		MaxTopK:        *maxTopK,
		QueryCacheSize: *queryCache,
		KeepVersions:   *keepVersions,
		RefitNNZ:       *refitNNZ,
		RefitStaleness: *refitStaleness,
		StreamDecay:    *streamDecay,
		RefitDrift:     *refitDrift,
		Logger:         logger,
	}

	var coord *distnet.Coordinator
	switch *role {
	case "standalone", "":
	case "coordinator":
		coord, err = distnet.Listen(distnet.Config{
			Listen:            *workerAddr,
			HeartbeatInterval: *hbInterval,
			HeartbeatTimeout:  *hbTimeout,
			Logger:            logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "aoadmmd:", err)
			os.Exit(1)
		}
		defer coord.Close()
		logger.Info("coordinator listening", "addr", coord.Addr())
		cfg.Dist = coord
	default:
		fmt.Fprintf(os.Stderr, "aoadmmd: unknown role %q (want standalone|coordinator|worker)\n", *role)
		os.Exit(1)
	}

	if err := run(*addr, *pprofAddr, cfg, *grace, logger); err != nil {
		fmt.Fprintln(os.Stderr, "aoadmmd:", err)
		os.Exit(1)
	}
}

// runWorker runs the compute-worker role: no HTTP surface, just a distnet
// worker that dials the coordinator, serves shard-range assignments, and
// reconnects until SIGINT/SIGTERM.
func runWorker(coordAddr, name, kernelFormat string, logger *slog.Logger) error {
	if coordAddr == "" {
		return fmt.Errorf("-role worker requires -coordinator-addr")
	}
	switch kernelFormat {
	case "", "csf", "alto", "auto":
	default:
		return fmt.Errorf("unknown -worker-format %q (want csf|alto|auto)", kernelFormat)
	}
	if name == "" {
		name, _ = os.Hostname()
	}
	w := distnet.NewWorker(distnet.WorkerConfig{
		CoordinatorAddr: coordAddr,
		Name:            name,
		KernelFormat:    kernelFormat,
		Logger:          logger,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		logger.Info("worker shutting down", "signal", sig.String())
		w.Close()
		cancel()
	}()
	logger.Info("worker starting", "coordinator", coordAddr)
	err := w.Run(ctx)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// buildLogger constructs the daemon's slog root from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text|json)", format)
	}
}

// pprofHandler builds an explicit pprof mux (the debug endpoints must never
// ride on the public API listener, so the net/http/pprof DefaultServeMux
// registration is not used).
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(addr, pprofAddr string, cfg serve.Config, grace time.Duration, logger *slog.Logger) error {
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	for _, w := range s.Warnings() {
		logger.Warn("model skipped at startup", "reason", w)
	}
	logger.Info("registry loaded", "data_dir", cfg.DataDir, "models", s.Registry().Len())
	if rec := s.Recovery(); rec.Requeued+rec.Resumed+rec.Restarted+rec.Adopted+rec.Terminal > 0 {
		logger.Info("journal recovery", "requeued", rec.Requeued, "resumed", rec.Resumed,
			"restarted", rec.Restarted, "adopted", rec.Adopted, "terminal", rec.Terminal)
	}

	var pprofSrv *http.Server
	if pprofAddr != "" {
		pprofSrv = &http.Server{Addr: pprofAddr, Handler: pprofHandler()}
		go func() {
			logger.Info("pprof listening", "addr", pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", addr, "workers", cfg.Workers, "queue_cap", cfg.QueueCap)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		s.Shutdown(grace)
		return err
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String(), "grace", grace)
	}

	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("http shutdown", "error", err)
	}
	if pprofSrv != nil {
		_ = pprofSrv.Shutdown(ctx)
	}
	s.Shutdown(grace)
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("bye")
	return nil
}
