package main

// metricSpec declares one metric: its unit, which direction is better,
// and — for end-to-end metrics — the share of the parent's median by
// which it may get worse before a change counts as a regression.
// /BENCHMARK.json carries the same lists; TestContractMatchesSpecs
// keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEndSpecs are what a user of the system sees, reported by every
// workload in every untraced run. The unit of work and the call a
// caller blocks on are per workload:
//
//	serve_miss, serve_hot  one HTTP request              (throughput: requests/s)
//	train                  one RunIteration call         (throughput: self-play episodes/s)
//	biggraph               one decomp SolveWithInfo call (throughput: vertices/s)
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
}

// headlineSpecs are biggraph's per-graph end-to-end values. They are
// measured untraced, written to -out by every biggraph run and bounded
// by -compare; /BENCHMARK.json lists them under per_layer because its
// end_to_end list is one list for all workloads.
var headlineSpecs = []metricSpec{
	{"decomp.blocky_vertices_per_s", "1/s", "higher", 0.15},
	{"decomp.reducible_vertices_per_s", "1/s", "higher", 0.15},
	{"decomp.module_vertices_per_s", "1/s", "higher", 0.15},
	{"decomp.cost_ratio_vs_scholz", "ratio", "lower", 0.005},
}

// perLayerSpecs are the metrics of single layers, reported by traced
// runs; the prefix is the module. README.md maps each to the end-to-end
// metric and workload it should move. A workload reports 0 for a layer
// it does not exercise.
var perLayerSpecs = append(append([]metricSpec{}, headlineSpecs...), []metricSpec{
	// serve_hot: the parser, the serializer and the router's cache
	{Name: "pbqp.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "pbqp.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "pbqp.canonical_hash_us", Unit: "us", Better: "lower"},
	{Name: "router.hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "router.respell_hit_ms_p50", Unit: "ms", Better: "lower"},
	// both serve workloads
	{Name: "router.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "router.coalesced_total", Unit: "count", Better: "lower"},
	{Name: "router.failovers_total", Unit: "count", Better: "lower"},
	{Name: "server.shed_total", Unit: "count", Better: "lower"},
	{Name: "trace.named_share", Unit: "ratio", Better: "higher"},
	// serve_miss: router forward path, backend, portfolio, rl-bt and what it stands on
	{Name: "router.miss_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "server.solve_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.handler_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "portfolio.stage_ms.rl-bt", Unit: "ms", Better: "lower"},
	{Name: "portfolio.stage_ms.liberty", Unit: "ms", Better: "lower"},
	{Name: "portfolio.stage_ms.scholz", Unit: "ms", Better: "lower"},
	{Name: "portfolio.winner_share.rl-bt", Unit: "ratio", Better: "higher"},
	{Name: "portfolio.winner_share.liberty", Unit: "ratio", Better: "lower"},
	{Name: "portfolio.wasted_share", Unit: "ratio", Better: "lower"},
	{Name: "rl.nodes_per_request", Unit: "count", Better: "lower"},
	{Name: "rl.nodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mcts.sims_per_s", Unit: "1/s", Better: "higher"},
	{Name: "net.evals_per_request", Unit: "count", Better: "lower"},
	{Name: "net.eval_us_mean", Unit: "us", Better: "lower"},
	{Name: "net.share_of_rl", Unit: "ratio", Better: "lower"},
	{Name: "net.evaluate_us", Unit: "us", Better: "lower"},
	{Name: "gcn.forward_us", Unit: "us", Better: "lower"},
	{Name: "net.torso_us", Unit: "us", Better: "lower"},
	{Name: "gcn.infer_us", Unit: "us", Better: "lower"},
	{Name: "net.evaluate_into_us", Unit: "us", Better: "lower"},
	{Name: "liberty.states_per_s", Unit: "1/s", Better: "higher"},
	// train
	{Name: "selfplay.episode_phase_s", Unit: "s", Better: "lower"},
	{Name: "selfplay.gradient_arena_s", Unit: "s", Better: "lower"},
	{Name: "selfplay.episodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "selfplay.worker_speedup", Unit: "ratio", Better: "higher"},
	{Name: "selfplay.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "ate.build_pbqp_ms", Unit: "ms", Better: "lower"},
	{Name: "net.forward_train_us", Unit: "us", Better: "lower"},
	{Name: "net.backward_us", Unit: "us", Better: "lower"},
	// biggraph, one value per graph
	{Name: "reduce.apply_ms.blocky", Unit: "ms", Better: "lower"},
	{Name: "reduce.apply_ms.reducible", Unit: "ms", Better: "lower"},
	{Name: "reduce.apply_ms.module", Unit: "ms", Better: "lower"},
	{Name: "reduce.eliminated_share.blocky", Unit: "ratio", Better: "higher"},
	{Name: "reduce.eliminated_share.reducible", Unit: "ratio", Better: "higher"},
	{Name: "reduce.eliminated_share.module", Unit: "ratio", Better: "higher"},
	{Name: "pbqp.csr_build_ms.blocky", Unit: "ms", Better: "lower"},
	{Name: "pbqp.csr_build_ms.reducible", Unit: "ms", Better: "lower"},
	{Name: "pbqp.csr_build_ms.module", Unit: "ms", Better: "lower"},
	{Name: "decomp.residual_ms.blocky", Unit: "ms", Better: "lower"},
	{Name: "decomp.residual_ms.reducible", Unit: "ms", Better: "lower"},
	{Name: "decomp.residual_ms.module", Unit: "ms", Better: "lower"},
	{Name: "decomp.blocks.blocky", Unit: "count", Better: "lower"},
	{Name: "decomp.blocks.reducible", Unit: "count", Better: "lower"},
	{Name: "decomp.blocks.module", Unit: "count", Better: "lower"},
	{Name: "decomp.largest_block.blocky", Unit: "count", Better: "lower"},
	{Name: "decomp.largest_block.reducible", Unit: "count", Better: "lower"},
	{Name: "decomp.largest_block.module", Unit: "count", Better: "lower"},
	{Name: "decomp.worker_speedup.blocky", Unit: "ratio", Better: "higher"},
	{Name: "decomp.worker_speedup.reducible", Unit: "ratio", Better: "higher"},
	{Name: "decomp.worker_speedup.module", Unit: "ratio", Better: "higher"},
	{Name: "scholz.vertices_per_s", Unit: "1/s", Better: "higher"},
	// every workload
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}...)
