// Command e2ebench is the repository's end-to-end and per-layer benchmark.
// It runs five fixed workloads against the program's public entry points —
// aoadmm.Factorize and FactorizeOOC, distnet.Coordinator.RunJob, and the
// serve HTTP handler on loopback — and reports what a user of each would
// see.
//
// Usage, from the root of a checkout:
//
//	bash e2ebench/run.sh --workload fit-patents --seed 1 --seconds 15 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --out runs.jsonl
//	bash e2ebench/run.sh --workload fit-nell --trace 1 --trace-out nell.json
//	bash e2ebench/run.sh compare parent.jsonl change.jsonl
//
// Workloads:
//
//   - fit-patents: in-memory AO-ADMM on the patents proxy, MTTKRP-bound.
//   - fit-nell: in-memory AO-ADMM on the nell proxy, blocked-ADMM-bound; the
//     no-change control for kernel work.
//   - ooc-patents: fit-patents' input sharded under a 16 MiB budget and
//     streamed by FactorizeOOC; only the out-of-core layer differs.
//   - dist-reddit: a coordinator and two workers over loopback TCP.
//   - serve-amazon: the daemon under open-loop top-K and fold-in traffic,
//     a closed-loop capacity phase, and appends beside back-to-back refits.
//
// An untraced run (--trace 0) measures for --seconds and reports the
// end-to-end metrics: setup_s, task_s, latency_ms.p50, latency_ms.p90 and
// peak_rss_mb. A traced run (--trace 1) alternates untraced reps with reps
// that collect the solver's metrics, wrap the MTTKRP engine, trace distnet
// jobs and scrape /metrics, and reports the per-layer metrics plus a Chrome
// trace. Every run checks the program's outputs: feasible factors, parity of
// the out-of-core and distributed fits with the in-memory one, sampled top-K
// answers against a brute-force scan, feasible fold-in rows, one lineage
// version per refit, and a 2xx answer to every request. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// The compare subcommand reads two sets of runs written with --out and
// applies the bounds in BENCHMARK.json per workload and metric: median,
// quartiles and run count for each side, a regression or unresolved verdict,
// and the seed-paired win count behind a gain claim.
//
// README.md defines every workload and metric, maps each layer to the
// end-to-end metric and workload it should move, and records the runtime and
// the first baseline measured with this benchmark.
package main
