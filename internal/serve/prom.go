package serve

import (
	"net/http"
	"sort"
	"strconv"
	"time"

	"aoadmm/internal/distnet"
	"aoadmm/internal/obs"
	"aoadmm/internal/stream"
)

// promContentType is the Prometheus text exposition format 0.0.4 MIME type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// writePrometheus serves GET /metrics?format=prometheus: the daemon counters,
// durability and out-of-core aggregates, query-latency histogram, and the
// per-kernel totals accumulated across every finished job's metrics report,
// rendered in the Prometheus text exposition format. See
// docs/OBSERVABILITY.md for the metric catalogue.
func (s *Server) writePrometheus(w http.ResponseWriter) {
	reg := s.promRegistry()
	if err := reg.Err(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", promContentType)
	w.WriteHeader(http.StatusOK)
	_ = reg.Write(w)
}

// promRegistry snapshots the daemon into a fresh exposition registry. Metrics
// are rebuilt per scrape from the same sources the JSON /metrics endpoint
// serves, so the two views can never drift.
func (s *Server) promRegistry() *obs.Registry {
	reg := obs.NewRegistry()

	counts := s.mgr.StatusCounts()
	for _, st := range []JobStatus{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled} {
		reg.GaugeVal("aoadmm_jobs", "Factorization jobs by lifecycle status.",
			float64(counts[string(st)]), obs.L("status", string(st)))
	}
	reg.GaugeVal("aoadmm_queue_depth", "Jobs waiting for a worker.", float64(s.mgr.QueueDepth()))
	reg.GaugeVal("aoadmm_models", "Models in the on-disk registry.", float64(s.reg.Len()))
	reg.GaugeVal("aoadmm_workers", "Configured factorization worker-pool size.", float64(s.cfg.Workers))
	reg.CounterVal("aoadmm_queries_total", "Completed model queries (entry + top-K + fold-in).", float64(s.queries.Load()))
	reg.CounterVal("aoadmm_query_errors_total", "Model queries that failed (unknown model, bad request, solver error).", float64(s.queryErrors.Load()))
	reg.CounterVal("aoadmm_foldins_total", "Fold-in solves served.", float64(s.foldins.Load()))

	cacheHits, cacheMisses := s.cache.stats()
	reg.CounterVal("aoadmm_topk_cache_hits_total", "Top-K requests answered from the result cache.", float64(cacheHits))
	reg.CounterVal("aoadmm_topk_cache_misses_total", "Top-K requests that missed the result cache.", float64(cacheMisses))
	reg.GaugeVal("aoadmm_topk_cache_entries", "Results currently held in the top-K cache.", float64(s.cache.len()))
	reg.CounterVal("aoadmm_topk_batches_total", "Coalesced multi-query top-K scans executed.", float64(s.batcher.batches.Load()))
	reg.CounterVal("aoadmm_topk_batched_queries_total", "Top-K queries served via a coalesced scan.", float64(s.batcher.batchedQueries.Load()))
	reg.CounterVal("aoadmm_topk_clusters_scanned_total", "Index clusters scored row-by-row by indexed top-K queries.", float64(s.idxScanned.Load()))
	reg.CounterVal("aoadmm_topk_clusters_pruned_total", "Index clusters skipped wholesale by score upper bound.", float64(s.idxPruned.Load()))

	// Export (not Snapshot) deliberately: the exposition must carry the full
	// fixed bucket schema on every scrape — including a fresh daemon's all-
	// zero buckets — so histogram_quantile always sees one stable layout.
	buckets, count, sum := s.queryLatency.Export()
	pb := make([]obs.Bucket, len(buckets))
	for i, b := range buckets {
		pb[i] = obs.Bucket{Le: b.LeSeconds, Count: b.Count}
	}
	reg.HistogramVal("aoadmm_query_latency_seconds", "Model query latency (successes and errors).",
		pb, count, sum)

	path, appends, fails := s.mgr.jnl.Stats()
	_ = path // the journal path is surfaced via /healthz, not as a label
	reg.CounterVal("aoadmm_journal_appends_total", "Write-ahead journal records appended.", float64(appends))
	reg.CounterVal("aoadmm_journal_append_failures_total", "Write-ahead journal append failures.", float64(fails))
	reg.CounterVal("aoadmm_job_retries_total", "Job attempts requeued after a transient failure.", float64(s.mgr.retries.Load()))
	reg.CounterVal("aoadmm_job_timeouts_total", "Job attempts stopped by the wall-clock budget.", float64(s.mgr.timeouts.Load()))
	reg.CounterVal("aoadmm_worker_panics_total", "Worker panics contained as job errors.", float64(s.mgr.panics.Load()))

	rec := s.mgr.Recovery()
	for _, kv := range []struct {
		kind string
		n    int
	}{
		{"requeued", rec.Requeued}, {"resumed", rec.Resumed},
		{"restarted", rec.Restarted}, {"adopted", rec.Adopted},
		{"terminal", rec.Terminal},
	} {
		reg.GaugeVal("aoadmm_recovery_jobs", "Jobs reconstructed from the journal at startup, by outcome.",
			float64(kv.n), obs.L("outcome", kv.kind))
	}

	reg.CounterVal("aoadmm_ooc_runs_total", "Completed out-of-core factorization runs.", float64(s.mgr.oocRuns.Load()))
	reg.CounterVal("aoadmm_ooc_shard_loads_total", "Shard files read and decoded.", float64(s.mgr.oocShardLoads.Load()))
	reg.CounterVal("aoadmm_ooc_shard_bytes_total", "Shard payload bytes read from disk.", float64(s.mgr.oocBytesRead.Load()))
	reg.CounterVal("aoadmm_ooc_prefetch_stalls_total", "MTTKRP waits on a shard not yet prefetched.", float64(s.mgr.oocStalls.Load()))

	s.promDist(reg)
	s.promStream(reg)
	s.promKernels(reg)
	return reg
}

// promStream exposes the streaming-ingestion and refit counters. Like the
// dist section, every series is emitted unconditionally — a daemon that
// never saw an append scrapes as all zeros, including each trigger label —
// so the exposition schema is stable and absence-based alerting cannot
// misfire.
func (s *Server) promStream(reg *obs.Registry) {
	st := s.stream.Stats()
	reg.GaugeVal("aoadmm_stream_lineages", "Model lineages with a delta journal on disk.", float64(st.Lineages))
	reg.CounterVal("aoadmm_stream_appends_total", "Delta batches accepted into lineage journals.", float64(st.Appends))
	reg.CounterVal("aoadmm_stream_append_nnz_total", "Delta non-zeros accepted into lineage journals.", float64(st.AppendNNZ))
	reg.GaugeVal("aoadmm_stream_pending_batches", "Appended batches not yet folded into a committed refit.", float64(st.PendingBatches))
	reg.GaugeVal("aoadmm_stream_pending_nnz", "Appended non-zeros not yet folded into a committed refit.", float64(st.PendingNNZ))
	for _, kv := range []struct {
		trigger string
		n       int64
	}{
		{stream.TriggerNNZ, s.refitNNZ.Load()},
		{stream.TriggerStaleness, s.refitStaleness.Load()},
		{stream.TriggerManual, s.refitManual.Load()},
		{stream.TriggerDrift, s.refitDrift.Load()},
	} {
		reg.CounterVal("aoadmm_stream_refits_total",
			"Refit jobs submitted, by trigger (nnz threshold, staleness window, manual request, drift policy).",
			float64(kv.n), obs.L("trigger", kv.trigger))
	}
	reg.CounterVal("aoadmm_stream_refit_commits_total", "Refits that registered a new lineage head.", float64(s.refitCommits.Load()))
	reg.CounterVal("aoadmm_stream_refit_failures_total", "Refit jobs that failed terminally.", float64(s.refitFailures.Load()))
	reg.CounterVal("aoadmm_stream_versions_gced_total", "Model versions removed by keep-last-N retention.", float64(s.versionsGCed.Load()))
	reg.GaugeVal("aoadmm_stream_drift_threshold", "Configured -refit-drift eager-refit threshold (0 = drift trigger disabled).", s.cfg.RefitDrift)
	// Per-lineage factor drift: the last committed refit's per-mode aligned
	// drift. Series appear once a lineage has committed a drift-measured
	// refit; one series per (lineage, mode).
	drift := s.driftSnapshot()
	roots := make([]string, 0, len(drift))
	for root := range drift {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for _, root := range roots {
		for mode, d := range drift[root] {
			reg.GaugeVal("aoadmm_stream_drift",
				"Per-mode aligned factor drift of the lineage's last committed refit (0 = unchanged up to permutation/scaling, 1 = orthogonal).",
				d, obs.L("mode", strconv.Itoa(mode)), obs.L("model", root))
		}
	}
}

// promDist exposes the networked distributed engine's counters. The series
// are emitted unconditionally — a standalone daemon scrapes as all zeros — so
// the exposition schema is identical whether or not -role coordinator is set
// and absence-based alerting cannot misfire.
func (s *Server) promDist(reg *obs.Registry) {
	var st distnet.Stats
	if s.cfg.Dist != nil {
		st = s.cfg.Dist.Stats()
	}
	reg.GaugeVal("aoadmm_dist_workers_live", "Distributed workers currently connected and heartbeating.", float64(st.WorkersLive))
	reg.CounterVal("aoadmm_dist_jobs_total", "Distributed factorization jobs started on this coordinator.", float64(st.JobsTotal))
	reg.CounterVal("aoadmm_dist_epochs_total", "Worker-set assignment epochs across distributed jobs (one per job plus one per recovery).", float64(st.Epochs))
	reg.CounterVal("aoadmm_dist_reassignments_total", "Shard-range reassignments after a worker death.", float64(st.Reassignments))
	reg.CounterVal("aoadmm_dist_heartbeat_misses_total", "Workers declared dead by heartbeat timeout.", float64(st.HeartbeatMisses))
	for _, kv := range []struct {
		coll  string
		bytes int64
	}{
		{"mttkrp", st.Collectives.MTTKRPBytes},
		{"factor", st.Collectives.FactorBytes},
		{"gram", st.Collectives.GramBytes},
		{"admm", st.Collectives.ADMMBytes},
	} {
		reg.CounterVal("aoadmm_dist_collective_bytes_total",
			"Logical collective volume as the engine prices it, by collective (admm stays 0 for the blocked variant).",
			float64(kv.bytes), obs.L("collective", kv.coll))
	}
	reg.CounterVal("aoadmm_dist_collective_messages_total", "Discrete logical transfers across all collectives.", float64(st.Collectives.Messages))
	for _, kv := range []struct {
		dir   string
		bytes int64
	}{
		{"sent", st.WireBytesSent},
		{"received", st.WireBytesReceived},
	} {
		reg.CounterVal("aoadmm_dist_wire_bytes_total",
			"Physical TCP frame bytes at the coordinator, including control traffic.",
			float64(kv.bytes), obs.L("direction", kv.dir))
	}
	reg.CounterVal("aoadmm_dist_trace_spans_total", "Worker trace spans merged into coordinator traces.", float64(st.TraceSpans))

	// Worker telemetry federation: per-worker series from the counters each
	// worker piggybacks on its heartbeats. Series exist only while the
	// worker is connected (worker identity is the label, so there is no
	// fixed schema to pre-declare).
	var workers []distnet.WorkerInfo
	if s.cfg.Dist != nil {
		workers = s.cfg.Dist.LiveWorkers()
	}
	sort.Slice(workers, func(a, b int) bool { return workers[a].Name < workers[b].Name })
	now := time.Now().UnixNano()
	for _, wi := range workers {
		wl := obs.L("worker", wi.Name)
		if wi.LastSeenUnixNano > 0 {
			reg.GaugeVal("aoadmm_dist_worker_last_heartbeat_age_seconds",
				"Seconds since the coordinator last heard from the worker.",
				float64(now-wi.LastSeenUnixNano)/1e9, wl)
		}
		reg.GaugeVal("aoadmm_dist_worker_heartbeat_rtt_seconds",
			"The worker's last measured heartbeat round trip.",
			float64(wi.HeartbeatRTTNanos)/1e9, wl)
		reg.CounterVal("aoadmm_dist_worker_epochs_total",
			"Assignment epochs the worker has completed.", float64(wi.Epochs), wl)
		reg.CounterVal("aoadmm_dist_worker_epoch_seconds_total",
			"Wall time the worker has spent inside assignment epochs.", float64(wi.EpochNanos)/1e9, wl)
		reg.CounterVal("aoadmm_dist_worker_shard_loads_total",
			"Shard-range loads the worker has performed.", float64(wi.ShardLoads), wl)
		reg.CounterVal("aoadmm_dist_worker_shard_stall_seconds_total",
			"Wall time the worker has spent blocked reading its shard range.",
			float64(wi.ShardStallNanos)/1e9, wl)
		reg.CounterVal("aoadmm_dist_worker_shard_bytes_total",
			"Shard payload bytes the worker has read from disk.", float64(wi.ShardBytes), wl)
		for _, dir := range []struct {
			name  string
			bytes int64
		}{
			{"sent", wi.WireSentBytes},
			{"received", wi.WireRecvBytes},
		} {
			reg.CounterVal("aoadmm_dist_worker_wire_bytes_total",
				"TCP frame bytes at the worker, by direction.",
				float64(dir.bytes), wl, obs.L("direction", dir.name))
		}
		for _, k := range []struct {
			format string
			n      int64
		}{
			{"csf", wi.KernelCSF},
			{"alto", wi.KernelALTO},
		} {
			reg.CounterVal("aoadmm_dist_worker_kernel_picks_total",
				"Local kernels the worker built, by MTTKRP backend format.",
				float64(k.n), wl, obs.L("format", k.format))
		}
		for _, ph := range []struct {
			phase string
			nanos int64
		}{
			{"mttkrp", wi.MTTKRPNanos},
			{"admm", wi.ADMMNanos},
		} {
			reg.CounterVal("aoadmm_dist_worker_compute_seconds_total",
				"Wall time the worker has spent in node-local compute, by phase.",
				float64(ph.nanos)/1e9, wl, obs.L("phase", ph.phase))
		}
	}
}

// promKernels aggregates every finished job's aoadmm-metrics/v1 report into
// per-(kernel, mode) time/call totals, daemon-wide ADMM counters, and the
// merged inner-iteration histogram.
func (s *Server) promKernels(reg *obs.Registry) {
	type key struct {
		kernel string
		mode   int
	}
	secs := map[key]float64{}
	calls := map[key]int64{}
	inner := map[float64]int64{}
	backends := map[string]int64{}
	var solves, blocks, rhoAdapt int64
	for _, rep := range s.mgr.Reports() {
		for _, kt := range rep.Kernels {
			k := key{kt.Kernel, kt.Mode}
			secs[k] += kt.Seconds
			calls[k] += kt.Calls
		}
		for _, b := range rep.Backends {
			backends[b]++
		}
		solves += rep.ADMM.Solves
		blocks += rep.ADMM.Blocks
		rhoAdapt += rep.ADMM.RhoAdaptations
		for its, n := range rep.ADMM.InnerIterHistogram {
			if f, err := strconv.ParseFloat(its, 64); err == nil {
				inner[f] += n
			}
		}
	}

	keys := make([]key, 0, len(secs))
	for k := range secs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kernel != keys[j].kernel {
			return keys[i].kernel < keys[j].kernel
		}
		return keys[i].mode < keys[j].mode
	})
	for _, k := range keys {
		labels := []obs.Label{obs.L("kernel", k.kernel), obs.L("mode", strconv.Itoa(k.mode))}
		reg.CounterVal("aoadmm_kernel_seconds_total",
			"Accumulated kernel wall time across finished jobs, per kernel per mode (mode -1 = not mode-attributable).",
			secs[k], labels...)
		reg.CounterVal("aoadmm_kernel_calls_total",
			"Kernel invocations across finished jobs, per kernel per mode.",
			float64(calls[k]), labels...)
	}

	bnames := make([]string, 0, len(backends))
	for b := range backends {
		bnames = append(bnames, b)
	}
	sort.Strings(bnames)
	for _, b := range bnames {
		reg.CounterVal("aoadmm_mttkrp_backend_total",
			"Mode-backend assignments across finished jobs, by MTTKRP kernel backend (csf, alto, ooc-auto, ...). One increment per mode per job.",
			float64(backends[b]), obs.L("backend", b))
	}

	reg.CounterVal("aoadmm_admm_solves_total", "Inner ADMM solves across finished jobs.", float64(solves))
	reg.CounterVal("aoadmm_admm_blocks_total", "ADMM row blocks processed across finished jobs.", float64(blocks))
	reg.CounterVal("aoadmm_admm_rho_adaptations_total", "Per-block penalty rescalings across finished jobs.", float64(rhoAdapt))

	if len(inner) > 0 {
		bounds := make([]float64, 0, len(inner))
		for f := range inner {
			bounds = append(bounds, f)
		}
		sort.Float64s(bounds)
		buckets, count, sum := obs.CumulateInto(bounds, inner)
		reg.HistogramVal("aoadmm_admm_inner_iterations",
			"Inner iterations per ADMM block until convergence, across finished jobs.",
			buckets, count, sum)
	}
}
