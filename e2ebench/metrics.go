package main

// metricDef names one reported metric and its unit. The catalogues below are
// the single list the runner checks every result against; BENCHMARK.json at
// the repository root repeats them with their regression bounds, and a test
// keeps the two in step.
type metricDef struct {
	name string
	unit string
}

// e2eMetrics are reported by untraced runs of every workload. What each one
// times differs per workload; README.md defines them.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"task_s", "s"},
	{"latency_ms.p50", "ms"},
	{"latency_ms.p90", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are reported by traced runs of every workload; a layer the
// workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"mttkrp.busy_s", "s"},
	{"mttkrp.calls", "count"},
	{"mttkrp.gflop", "GFLOP"},
	{"mttkrp.gflops", "GFLOP/s"},
	{"mttkrp.gb_computed", "GB"},
	{"mttkrp.roofline_frac", "frac"},
	{"csf.build_s", "s"},
	{"csf.mb", "MB"},
	{"admm.busy_s", "s"},
	{"admm.cholesky_s", "s"},
	{"admm.prox_s", "s"},
	{"admm.blocks", "count"},
	{"admm.block_iters.p50", "count"},
	{"admm.block_iters.p90", "count"},
	{"admm.rho_adaptations", "count"},
	{"core.row_iters", "count"},
	{"dense.gram_s", "s"},
	{"core.fit_check_s", "s"},
	{"core.iter_ms.p50", "ms"},
	{"core.relerr", "ratio"},
	{"core.unattributed_frac", "frac"},
	{"par.busy_s", "s"},
	{"par.imbalance_ratio", "ratio"},
	{"ooc.convert_s", "s"},
	{"ooc.shards", "count"},
	{"ooc.shard_loads", "count"},
	{"ooc.read_mb", "MB"},
	{"ooc.prefetch_stalls", "count"},
	{"ooc.stall_s", "s"},
	{"ooc.peak_tracked_mb", "MB"},
	{"ooc.mttkrp_s", "s"},
	{"ooc.mttkrp_vs_inmem_ratio", "ratio"},
	{"distnet.wire_mb", "MB"},
	{"dist.comm.mttkrp_mb", "MB"},
	{"dist.comm.factor_mb", "MB"},
	{"dist.comm.gram_mb", "MB"},
	{"dist.comm.admm_b", "B"},
	{"dist.comm.msgs", "count"},
	{"distnet.worker.mttkrp_s", "s"},
	{"distnet.worker.admm_s", "s"},
	{"distnet.worker.shard_load_s", "s"},
	{"distnet.worker_imbalance", "ratio"},
	{"distnet.coord_s", "s"},
	{"distnet.epochs", "count"},
	{"distnet.reassignments", "count"},
	{"serve.query_server_ms.p50", "ms"},
	{"serve.http_ms.p50", "ms"},
	{"serve.qcache.hit_frac", "frac"},
	{"serve.batch.mean_queries", "count"},
	{"kruskal.index.prune_frac", "frac"},
	{"serve.topk_ms.p99", "ms"},
	{"serve.topk_closed_qps", "1/s"},
	{"serve.foldin_ms.p50", "ms"},
	{"serve.foldin_ms.p99", "ms"},
	{"serve.append_ms.p90", "ms"},
	{"serve.topk_refit_ms.p99", "ms"},
	{"stream.refit_queue_s", "s"},
	{"stream.materialize_s", "s"},
	{"stream.refit_fit_s", "s"},
	{"stream.head_swap_s", "s"},
	{"gen.late_ms.p99", "ms"},
	{"obs.trace_overhead_frac", "frac"},
	{"obs.dropped_spans", "count"},
	{"machine.triad_gbps", "GB/s"},
	{"machine.fma_gflops", "GFLOP/s"},
}

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
