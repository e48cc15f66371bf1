package main

// metricDef is one reported metric. For per-layer metrics, moves names the
// end-to-end metric the layer should move and on the workload where it
// should, written down before measuring.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEnd lists the metrics every untraced run prints, on every workload.
// A checkpoint is the time from the oldest write an estimate is the first
// to cover to that estimate's return; post and estimate are its two
// halves (replay: the 64 observes and the estimate of a checkpoint).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "snapshots_per_s", unit: "1/s", better: "higher"},
	{name: "checkpoint_p50_ms", unit: "ms", better: "lower"},
	{name: "checkpoint_p90_ms", unit: "ms", better: "lower"},
	{name: "post_p50_ms", unit: "ms", better: "lower"},
	{name: "post_p90_ms", unit: "ms", better: "lower"},
	{name: "estimate_p50_ms", unit: "ms", better: "lower"},
	{name: "estimate_p90_ms", unit: "ms", better: "lower"},
}

// perLayer lists the metrics every traced run prints. A traced run times
// every layer on its workload's inputs; moves/on say where the number is
// expected to matter.
var perLayer = []metricDef{
	{"serve.ingest_wire.json.us_per_snap", "us", "lower", "post_p50_ms", "serve"},
	{"serve.ingest_wire.binary.us_per_snap", "us", "lower", "post_p50_ms", "ingest"},
	{"serve.estimate.ms_p50", "ms", "lower", "estimate_p50_ms", "serve"},
	{"serve.estimate.wait_ms_p50", "ms", "lower", "estimate_p50_ms", "serve"},
	{"serve.views_per_batch", "ratio", "lower", "snapshots_per_s", "ingest"},
	{"serve.replica_lag_max", "count", "lower", "estimate_p90_ms", "serve"},
	{"serve.queue_depth_max", "count", "lower", "snapshots_per_s", "ingest"},
	{"serve.refused", "count", "lower", "snapshots_per_s", "ingest"},
	{"http.overhead_ms_p50", "ms", "lower", "post_p50_ms", "ingest"},
	{"window.observe.us_per_snap", "us", "lower", "checkpoint_p50_ms", "replay"},
	{"window.observe_batch_words.us_per_snap", "us", "lower", "snapshots_per_s", "ingest"},
	{"window.view.ms_p50", "ms", "lower", "snapshots_per_s", "ingest"},
	{"window.estimate_in.ms_p50", "ms", "lower", "estimate_p50_ms", "serve"},
	{"measure.prime_pairs.ms_p50", "ms", "lower", "estimate_p50_ms", "serve"},
	{"measure.prime_pairs.pairs", "count", "lower", "estimate_p50_ms", "serve"},
	{"core.evaluate_in.ms_p50", "ms", "lower", "checkpoint_p50_ms", "replay"},
	{"core.solve.ms_p50", "ms", "lower", "checkpoint_p50_ms", "replay"},
	{"core.solver.square", "count", "higher", "checkpoint_p90_ms", "replay"},
	{"core.solver.l1", "count", "lower", "checkpoint_p90_ms", "replay"},
	{"core.solver.min_norm", "count", "lower", "checkpoint_p90_ms", "replay"},
	{"mle.estimate_in.ms_p50", "ms", "lower", "estimate_p50_ms", "serve"},
	{"mle.iters_p50", "count", "lower", "estimate_p50_ms", "serve"},
	{"segstore.sealed_segments", "count", "lower", "estimate_p90_ms", "serve"},
	{"segstore.spilled_mb", "MiB", "lower", "estimate_p90_ms", "serve"},
	{"segstore.seal_batch.ms_p50", "ms", "lower", "estimate_p90_ms", "serve"},
	{"plan.compile.ms", "ms", "lower", "setup_s", "all"},
	{"scenario.build.ms", "ms", "lower", "setup_s", "all"},
	{"netsim.simulate.us_per_snap", "us", "lower", "setup_s", "replay"},
	{"go.gc_cycles", "count", "lower", "snapshots_per_s", "all"},
	{"go.gc_pause_ms", "ms", "lower", "checkpoint_p90_ms", "all"},
	{"go.alloc_bytes_per_snap", "B", "lower", "snapshots_per_s", "all"},
	{"gen.lateness_p90_ms", "ms", "lower", "", "serve"},
	{"host.steal_pct", "%", "lower", "", "all"},
	{"trace.overhead_pct", "%", "lower", "", "all"},
	{"trace.unattributed_pct", "%", "lower", "", "all"},
}
