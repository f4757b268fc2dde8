package main

// metricDef names one metric. Later issues refer to these names verbatim, and
// BENCHMARK.json lists the same names (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share by which an end-to-end metric may get worse before a
	// change counts as a regression; zero for per-layer metrics.
	Bound float64
	// Moves says, for a per-layer metric, which end-to-end metric on which
	// workload it is expected to move.
	Moves string
}

// endToEnd are the metrics a buyer of verdicts would see. Every workload
// reports every one: the metrics a workload's own traffic does not produce
// come from a fixed-size probe after it (see README, "Probes").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "verdicts_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "verify_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "ttfv_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "certify_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "replicate_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "warm_restart_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server_cpu_us_per_verdict", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "server_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "wire_bytes_per_verdict", Unit: "B", Better: "lower", Bound: 0.05},
}

// The bounds are the issue's where this box allows them and otherwise the
// spread observed between ten runs on ten seeds, rounded up with room to
// spare (README, "Bounds"): a bound narrower than the box's own noise could
// only ever report "unresolved".

// errorRatio is the twelfth end-to-end metric of the issue. It is printed and
// kept in result.json, and any non-zero value fails the run, but it is not in
// BENCHMARK.json: the driver's contract wants metrics that are never zero and
// carries failures in its own attempted/failed/correct fields.
var errorRatio = metricDef{Name: "error_ratio", Unit: "ratio", Better: "lower"}

// printedEndToEnd is what the tables and result.json carry: the bounded
// metrics, then error_ratio.
var printedEndToEnd = append(append([]metricDef(nil), endToEnd...), errorRatio)

var perLayer = []metricDef{
	// transport: codec and socket.
	{Name: "transport.echo_rtt_us", Unit: "us", Better: "lower", Moves: "verify_p50_us, server_cpu_us_per_verdict on hot-verify (dominant); <=5% on fresh-verify"},
	{Name: "transport.req_encode_us", Unit: "us", Better: "lower", Moves: "verify_p50_us on hot-verify"},
	{Name: "transport.req_decode_us", Unit: "us", Better: "lower", Moves: "server_cpu_us_per_verdict on hot-verify"},
	{Name: "transport.resp_encode_us", Unit: "us", Better: "lower", Moves: "server_cpu_us_per_verdict on hot-verify"},
	{Name: "transport.resp_decode_us", Unit: "us", Better: "lower", Moves: "verify_p50_us on hot-verify"},
	{Name: "transport.req_bytes", Unit: "B", Better: "lower", Moves: "wire_bytes_per_verdict on hot-verify, fresh-verify"},
	{Name: "transport.resp_bytes", Unit: "B", Better: "lower", Moves: "wire_bytes_per_verdict on hot-verify, fresh-verify"},
	{Name: "transport.dial_us", Unit: "us", Better: "lower", Moves: "warm_restart_ms, setup_s"},
	{Name: "transport.batch_req_decode_ms", Unit: "ms", Better: "lower", Moves: "ttfv_p50_ms on stream-mixed"},
	{Name: "transport.frame_us", Unit: "us", Better: "lower", Moves: "verdicts_per_s on stream-mixed"},
	{Name: "transport.frame_bytes", Unit: "B", Better: "lower", Moves: "wire_bytes_per_verdict on stream-mixed"},
	// identity: digests and signatures.
	{Name: "identity.digest_us", Unit: "us", Better: "lower", Moves: "verify_p50_us on hot-verify (small)"},
	{Name: "identity.sign_us", Unit: "us", Better: "lower", Moves: "certify_p50_ms on panel-certify"},
	{Name: "identity.verify_us", Unit: "us", Better: "lower", Moves: "certify_p50_ms on panel-certify"},
	// service: cache, pool, replication endpoints.
	{Name: "service.hit_us", Unit: "us", Better: "lower", Moves: "verdicts_per_s on hot-verify"},
	{Name: "service.hit_allocs", Unit: "count", Better: "lower", Moves: "server_cpu_us_per_verdict on hot-verify"},
	{Name: "service.hit_scaling_2g", Unit: "ratio", Better: "higher", Moves: "verdicts_per_s on hot-verify"},
	{Name: "service.miss_self_us", Unit: "us", Better: "lower", Moves: "verify_p50_us on fresh-verify"},
	{Name: "service.stream_item_us", Unit: "us", Better: "lower", Moves: "verdicts_per_s on stream-mixed"},
	{Name: "service.sync_offer_ms", Unit: "ms", Better: "lower", Moves: "replicate_p50_ms, server_cpu_us_per_verdict on panel-certify"},
	{Name: "service.serve_offer_ms", Unit: "ms", Better: "lower", Moves: "replicate_p50_ms, server_cpu_us_per_verdict on panel-certify"},
	{Name: "service.ingest_delta_ms", Unit: "ms", Better: "lower", Moves: "replicate_p50_ms, server_cpu_us_per_verdict on panel-certify"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "verdicts_per_s on hot-verify (>=0.99), fresh-verify (~0)"},
	{Name: "service.dedup_ratio", Unit: "ratio", Better: "higher", Moves: "verdicts_per_s on stream-mixed"},
	{Name: "service.server_p50_us", Unit: "us", Better: "lower", Moves: "verify_p50_us; its gap to verify_p50_us is codec + socket"},
	{Name: "service.stream_ttfv_ms", Unit: "ms", Better: "lower", Moves: "ttfv_p50_ms; its gap to ttfv_p50_ms is request decode + socket"},
	{Name: "service.shed_ratio", Unit: "ratio", Better: "lower", Moves: "error_ratio on stream-mixed (must stay 0)"},
	{Name: "service.sync_rounds_per_s", Unit: "1/s", Better: "higher", Moves: "replicate_p50_ms on panel-certify"},
	// core: the seven bundled procedures and the certificate.
	{Name: "core.proc_enumeration_us", Unit: "us", Better: "lower", Moves: "verify_p50_us, verdicts_per_s, server_cpu_us_per_verdict on fresh-verify; none on hot-verify"},
	{Name: "core.proc_p1_us", Unit: "us", Better: "lower", Moves: "same as core.proc_enumeration_us"},
	{Name: "core.proc_nagent_us", Unit: "us", Better: "lower", Moves: "same as core.proc_enumeration_us"},
	{Name: "core.proc_participation_us", Unit: "us", Better: "lower", Moves: "same as core.proc_enumeration_us"},
	{Name: "core.proc_correlated_us", Unit: "us", Better: "lower", Moves: "same as core.proc_enumeration_us"},
	{Name: "core.proc_lastmover_us", Unit: "us", Better: "lower", Moves: "same as core.proc_enumeration_us"},
	{Name: "core.proc_routing_us", Unit: "us", Better: "lower", Moves: "same as core.proc_enumeration_us"},
	{Name: "core.proc_mix_us", Unit: "us", Better: "lower", Moves: "verify_p50_us, verdicts_per_s on fresh-verify (catalog-weighted mean)"},
	{Name: "core.cert_verify_us", Unit: "us", Better: "lower", Moves: "certify_p50_ms on panel-certify"},
	{Name: "core.cert_bytes", Unit: "B", Better: "lower", Moves: "wire_bytes_per_verdict on panel-certify"},
	// store: the durable verdict log.
	{Name: "store.append_us", Unit: "us", Better: "lower", Moves: "verdicts_per_s on fresh-verify"},
	{Name: "store.drain_records_per_s", Unit: "1/s", Better: "higher", Moves: "verdicts_per_s on fresh-verify; replicate_p50_ms"},
	{Name: "store.bytes_per_record", Unit: "B", Better: "lower", Moves: "warm_restart_ms on fresh-verify"},
	{Name: "store.encode_record_us", Unit: "us", Better: "lower", Moves: "replicate_p50_ms on panel-certify"},
	{Name: "store.decode_record_us", Unit: "us", Better: "lower", Moves: "warm_restart_ms, replicate_p50_ms"},
	{Name: "store.drop_ratio", Unit: "ratio", Better: "lower", Moves: "warm_restart_ms (lost warmth) on fresh-verify"},
	{Name: "store.compactions", Unit: "count", Better: "lower", Moves: "loadgen.verify_p99_us on fresh-verify"},
	{Name: "store.disk_bytes_per_verdict", Unit: "B", Better: "lower", Moves: "verdicts_per_s on fresh-verify"},
	{Name: "store.open_replay_ms", Unit: "ms", Better: "lower", Moves: "warm_restart_ms"},
	{Name: "store.replay_hit_ratio", Unit: "ratio", Better: "higher", Moves: "warm_restart_ms"},
	// quorum: the certificate fan-out.
	{Name: "quorum.certify_local_ms", Unit: "ms", Better: "lower", Moves: "certify_p50_ms on panel-certify; its gap to it is process scheduling"},
	{Name: "quorum.reput_ratio", Unit: "ratio", Better: "lower", Moves: "replicate_p50_ms tail: certificates that never left member A and were submitted again"},
	// authority: the process, seen from /proc and the operator plane.
	{Name: "authority.build_s", Unit: "s", Better: "lower", Moves: "none (first-run cost)"},
	{Name: "authority.start_ms", Unit: "ms", Better: "lower", Moves: "warm_restart_ms, setup_s"},
	{Name: "authority.mallocs_per_verdict", Unit: "count", Better: "lower", Moves: "server_cpu_us_per_verdict"},
	{Name: "authority.alloc_bytes_per_verdict", Unit: "B", Better: "lower", Moves: "server_cpu_us_per_verdict, server_rss_mb"},
	{Name: "authority.gc_per_kverdict", Unit: "count", Better: "lower", Moves: "verify_p90_us, loadgen.verify_p99_us"},
	{Name: "authority.cpu_user_us_per_verdict", Unit: "us", Better: "lower", Moves: "server_cpu_us_per_verdict"},
	{Name: "authority.cpu_sys_us_per_verdict", Unit: "us", Better: "lower", Moves: "server_cpu_us_per_verdict (socket syscalls)"},
	// obs: the operator plane.
	{Name: "obs.metrics_render_us", Unit: "us", Better: "lower", Moves: "none (operator plane, bounded)"},
	// loadgen and host: the generator's own cost and the box.
	{Name: "loadgen.cpu_us_per_verdict", Unit: "us", Better: "lower", Moves: "bounds what a server saving can show on closed loops"},
	{Name: "loadgen.unloaded_p50_us", Unit: "us", Better: "lower", Moves: "verify_p50_us (one connection, fixed count)"},
	{Name: "loadgen.verify_p90_us", Unit: "us", Better: "lower", Moves: "none (tail of verify_p50_us; run-to-run spread 0.27 on panel-certify, wider than any bound the contract allows)"},
	{Name: "loadgen.verify_p99_us", Unit: "us", Better: "lower", Moves: "none (demoted from end-to-end: run-to-run spread 0.24 to 0.43, wider than any bound the contract allows)"},
	{Name: "loadgen.verify_p999_us", Unit: "us", Better: "lower", Moves: "none (tail, too few samples to bound)"},
	{Name: "loadgen.late_ratio", Unit: "ratio", Better: "lower", Moves: "certify_p50_ms on panel-certify"},
	{Name: "host.calib_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "everything (box drift)"},
	{Name: "host.steal_ratio", Unit: "ratio", Better: "lower", Moves: "everything (CPU the hypervisor gave to other guests)"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none (cost of the generator's own spans)"},
	{Name: "recon.hot_gap_ratio", Unit: "ratio", Better: "lower", Moves: "none (unexplained share of an unloaded hot verify)"},
	{Name: "recon.fresh_gap_ratio", Unit: "ratio", Better: "lower", Moves: "none (unexplained share of an unloaded fresh verify)"},
}
