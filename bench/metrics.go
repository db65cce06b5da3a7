package main

// metricDef names a metric and how to read it.
type metricDef struct {
	name, unit, better string
}

// gatedEndToEnd are the end-to-end metrics BENCHMARK.json declares, each
// with the regression bound it gives them.
var gatedEndToEnd = []metricDef{
	{"pkts_per_s", "pkt/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// reportedEndToEnd are also printed and written per workload. They can
// legitimately reach 0, so a relative bound cannot gate them:
// allocs_per_pkt is listed with the per-layer metrics instead, and
// fail_frac is the result's failed / attempted, which must stay 0.
var reportedEndToEnd = []metricDef{
	{"allocs_per_pkt", "allocs/pkt", "lower"},
	{"fail_frac", "ratio", "lower"},
}

// perLayer are the per-layer metrics BENCHMARK.json declares: the ones
// every workload's traced run measures.
var perLayer = []metricDef{
	{"core.verify_s", "s", "lower"},
	{"core.new_s", "s", "lower"},
	{"core.process_ns_p50", "ns", "lower"},
	{"core.process_ns_p999", "ns", "lower"},
	{"core.process_samples", "count", "higher"},
	{"core.process_untraced_ns_mean", "ns", "lower"},
	{"core.allocs_per_pkt_traced", "allocs/pkt", "lower"},
	{"core.allocs_per_pkt_untraced", "allocs/pkt", "lower"},
	{"stats.account_ns_per_pkt", "ns", "lower"},
	{"stats.account_frac", "ratio", "lower"},
	{"stats.aggregate_ns_per_pkt", "ns", "lower"},
	{"vm.instrs_per_pkt", "instr/pkt", "lower"},
	{"vm.interp.ns_per_pkt", "ns", "lower"},
	{"vm.threaded.ns_per_pkt", "ns", "lower"},
	{"vm.threaded-nofacts.ns_per_pkt", "ns", "lower"},
	{"vm.compiled-pgo.ns_per_pkt", "ns", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"allocs_per_pkt", "allocs/pkt", "lower"},
	{"ledger.unattributed_frac", "ratio", "lower"},
	{"ledger.tracing_overhead_frac", "ratio", "lower"},
}

// workloadLayers are measured only where the workload's path has the
// layer; they are printed and written, not declared.
var workloadLayers = []metricDef{
	{"trace.preload_s", "s", "lower"},
	{"trace.open_s", "s", "lower"},
	{"trace.read_ns_per_pkt", "ns", "lower"},
	{"trace.pkts_per_batch", "count", "higher"},
	{"route.build_s", "s", "lower"},
	{"pool.queue_wait_ns_mean", "ns", "lower"},
	{"pool.queue_wait_ns_max", "ns", "lower"},
	{"pool.exec_ns_mean", "ns", "lower"},
	{"pool.worker_busy_frac", "ratio", "higher"},
	{"pool.producer_busy_frac", "ratio", "lower"},
	{"report.env_s", "s", "lower"},
	{"report.matrix_s", "s", "lower"},
	{"report.table4_s", "s", "lower"},
	{"report.variation_s", "s", "lower"},
	{"report.figures_s", "s", "lower"},
	{"report.microarch_s", "s", "lower"},
	{"report.format_s", "s", "lower"},
}

// unitOf returns a metric's unit, or "" for a name no table lists.
func unitOf(name string) string {
	for _, table := range [][]metricDef{gatedEndToEnd, reportedEndToEnd, perLayer, workloadLayers} {
		for _, m := range table {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
