package main

import _ "embed"

// expectedJSON pins, per workload, the output digest of a full-scale
// end-to-end run of seed 1.
//
//go:embed expected.json
var expectedJSON []byte

// perLayer lists every per-layer metric a traced run prints, in the order
// of BENCHMARK.json. The prefix is the package the number belongs to;
// README.md says which end-to-end metric each should move, and on which
// workload. A workload reports 0 for the layers it never enters.
var perLayer = []metricDef{
	{"workload.next_ns", "ns"},
	{"traceio.read_ns", "ns"},
	{"traceio.write_ns", "ns"},
	{"traceio.bytes_per_event", "B"},
	{"ingest.source_ns", "ns"},
	{"ingest.sink_ns", "ns"},
	{"ingest.daystart_ms", "ms"},
	{"resolver.hit_ns", "ns"},
	{"resolver.miss_ns", "ns"},
	{"resolver.miss_self_ns", "ns"},
	{"resolver.hit_ratio", "ratio"},
	{"resolver.neghit_ratio", "ratio"},
	{"resolver.upstream_rt_per_query", "count"},
	{"resolver.wire_bytes_per_query", "B"},
	{"cache.get_ns", "ns"},
	{"cache.put_ns", "ns"},
	{"cache.evictions_per_query", "count"},
	{"cache.premature_ratio", "ratio"},
	{"cache.reclaims_per_query", "count"},
	{"cache.live_entries", "count"},
	{"authority.handle_ns", "ns"},
	{"authority.calls_per_query", "count"},
	{"authority.append_ns", "ns"},
	{"dnsmsg.encode_ns", "ns"},
	{"dnsmsg.decode_ns", "ns"},
	{"dnsmsg.resp_bytes_p50", "B"},
	{"chrstat.observe_ns", "ns"},
	{"chrstat.records", "count"},
	{"pdns.observe_ns", "ns"},
	{"pdns.records", "count"},
	{"pdns.storage_mb", "MiB"},
	{"udptransport.rtt_p50_us", "us"},
	{"udptransport.rtt_p99_us", "us"},
	{"udptransport.rtt_samples", "count"},
	{"udptransport.rtt_w1_p50_us", "us"},
	{"udptransport.handle_p50_ns", "ns"},
	{"udptransport.rx_packets", "count"},
	{"udptransport.dropped", "count"},
	{"udptransport.truncated", "count"},
	{"livescore.score_ns", "ns"},
	{"livescore.disposable_share", "ratio"},
	{"livescore.names_dropped", "count"},
	{"core.intake_ns", "ns"},
	{"core.rescore_ms_p50", "ms"},
	{"core.rescore_ms_max", "ms"},
	{"core.endday_ms", "ms"},
	{"core.batch_day_ms", "ms"},
	{"core.buildtree_ms", "ms"},
	{"core.mine_ms", "ms"},
	{"core.train_ms", "ms"},
	{"core.findings_per_day", "count"},
	{"core.drifts", "count"},
	{"core.tpr", "ratio"},
	{"core.fpr", "ratio"},
	{"proc.cpu_us_per_query", "us"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.peak_rss_mb", "MiB"},
	{"bench.rounds", "count"},
	{"bench.round_qps_p25", "1/s"},
	{"bench.round_qps_p50", "1/s"},
	{"bench.round_qps_p75", "1/s"},
	{"bench.round_qps_iqr_pct", "%"},
	{"bench.calib_mops_before", "Mops/s"},
	{"bench.calib_mops_after", "Mops/s"},
	{"bench.trace_overhead_pct", "%"},
}
