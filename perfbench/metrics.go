package main

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units; the smoke test fails when the two drift apart.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees; every workload reports all of
// them from the untraced run.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is reported by the traced run. A metric that does not exist on a
// workload (service.* in process, memo.* with the cache off) reads 0 there.
var perLayer = []metricDef{
	{"parser.parse_us_per_op", "us"},
	{"views.expand_us_per_op", "us"},
	{"rewrite.normalize_us_per_op", "us"},
	{"translate.translate_us_per_op", "us"},
	{"algebra.validate_us_per_op", "us"},
	{"planopt.share_us_per_op", "us"},
	{"exec.run_us_per_op", "us"},
	{"exec.base_tuples_read_per_op", "count"},
	{"exec.comparisons_per_op", "count"},
	{"exec.hash_inserts_per_op", "count"},
	{"exec.intermediate_tuples_per_op", "count"},
	{"exec.materializations_per_op", "count"},
	{"exec.output_tuples_per_op", "count"},
	{"exec.batches_emitted_per_op", "count"},
	{"exec.avg_batch_fill", "count"},
	{"memo.hit_ratio", "ratio"},
	{"memo.tuples_replayed_per_op", "count"},
	{"memo.tuples_spooled_per_op", "count"},
	{"memo.entries", "count"},
	{"memo.tuples", "count"},
	{"memo.spools_abandoned", "count"},
	{"core.query_us_per_op", "us"},
	{"core.self_us_per_op", "us"},
	{"integrity.insert_checked_us_per_op", "us"},
	{"integrity.check_us_per_op", "us"},
	{"integrity.rejected_share", "ratio"},
	{"relation.delete_us_per_op", "us"},
	{"storage.generation_bumps", "count"},
	{"storage.load_s", "s"},
	{"service.queue_wait_us_p50", "us"},
	{"service.queue_wait_us_p95", "us"},
	{"service.plan_us_per_op", "us"},
	{"service.exec_us_per_op", "us"},
	{"service.total_us_per_op", "us"},
	{"service.batch_mean", "count"},
	{"service.flight_share_ratio", "ratio"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.sheds", "count"},
	{"service.errors", "count"},
	{"client.roundtrip_us_per_op", "us"},
	{"client.http_overhead_us_per_op", "us"},
	{"client.response_kb_per_op", "kB"},
	{"client.retries", "count"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_kb_per_op", "kB"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"e2e.latency_p99_ms", "ms"},
	{"e2e.latency_max_ms", "ms"},
	{"e2e.samples", "count"},
	{"trace.overhead_share", "ratio"},
}

// metrics is one run's named values; a metric a run does not set reads 0.
type metrics map[string]float64
