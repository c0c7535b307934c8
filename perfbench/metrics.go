package main

// metricSpec is one metric the benchmark reports. README.md maps each
// per-layer metric to the end-to-end metric and workload it should move.
type metricSpec struct {
	name, unit, better string
}

// e2eMetrics are reported by every untraced run, on every workload.
var e2eMetrics = []metricSpec{
	{"jobs_per_cpu_s", "1/s", "higher"},
	{"http_jobs_per_cpu_s", "1/s", "higher"},
	{"minstr_per_cpu_s", "Minstr/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// layerMetrics are reported by every traced run, on every workload.
var layerMetrics = []metricSpec{
	{"serve.bin_self_us", "us", "lower"},
	{"serve.http_self_us", "us", "lower"},
	{"serve.queue_wait_p50_us", "us", "lower"},
	{"serve.queue_wait_p99_us", "us", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.quota", "count", "lower"},
	{"pool.self_us", "us", "lower"},
	{"pool.queue_wait_p50_us", "us", "lower"},
	{"pool.restore_p50_us", "us", "lower"},
	{"pool.run_p50_us", "us", "lower"},
	{"pool.warm_hit_ratio", "ratio", "higher"},
	{"pool.restores_per_job", "count", "lower"},
	{"pool.evictions_per_job", "count", "lower"},
	{"pool.cache_build_ms", "ms", "lower"},
	{"pool.cache_lookup_p99_us", "us", "lower"},
	{"lfirt.restore_us", "us", "lower"},
	{"lfirt.snapshot_pages", "count", "lower"},
	{"lfirt.run_us", "us", "lower"},
	{"lfirt.load_ms", "ms", "lower"},
	{"lfirt.snapshot_ms", "ms", "lower"},
	{"lfirt.host_calls_per_job", "count", "lower"},
	{"lfirt.preempts_per_job", "count", "lower"},
	{"emu.ns_per_instr", "ns", "lower"},
	{"emu.retire_ns_per_instr", "ns", "lower"},
	{"emu.block_misses_per_job", "count", "lower"},
	{"emu.block_hit_ratio", "ratio", "higher"},
	{"emu.chain_hit_ratio", "ratio", "higher"},
	{"emu.sb_side_exit_ratio", "ratio", "lower"},
	{"emu.fused_access_ratio", "ratio", "higher"},
	{"emu.tc_read_hit_ratio", "ratio", "higher"},
	{"emu.tc_write_hit_ratio", "ratio", "higher"},
	{"arm64.parse_us_per_kb", "us/KiB", "lower"},
	{"rewrite.us_per_kb", "us/KiB", "lower"},
	{"arm64.assemble_us_per_kb", "us/KiB", "lower"},
	{"elfobj.marshal_us", "us", "lower"},
	{"verifier.mb_per_s", "MiB/s", "higher"},
	{"wasmbase.validate_us", "us", "lower"},
	{"wasmfront.translate_us", "us", "lower"},
	{"ladder.lfirt_us", "us", "lower"},
	{"ladder.pool_us", "us", "lower"},
	{"ladder.bin_us", "us", "lower"},
	{"ladder.http_us", "us", "lower"},
	{"ladder.residual_pct", "%", "lower"},
	{"traced.jobs_per_s", "1/s", "higher"},
	{"traced.p50_ms", "ms", "lower"},
	{"traced.p99_ms", "ms", "lower"},
	{"traced.http_jobs_per_s", "1/s", "higher"},
	{"traced.http_p99_ms", "ms", "lower"},
	{"traced.minstr_per_s", "Minstr/s", "higher"},
	{"traced.peak_rss_mb", "MiB", "lower"},
	{"traced.jobs_per_cpu_s", "1/s", "higher"},
	{"traced.http_jobs_per_cpu_s", "1/s", "higher"},
	{"traced.minstr_per_cpu_s", "Minstr/s", "higher"},
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), e2eMetrics...), layerMetrics...) {
		m[s.name] = s.unit
	}
	return m
}()
