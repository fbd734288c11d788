package main

// metricDef describes one metric the benchmark prints. End-to-end metrics
// carry the bound by which they may worsen; per-layer metrics carry their
// layer (the module's name), their kind and the end-to-end metric × workload
// they should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median
	Kind   string  // per-layer only: count, probe, workload-probe, share or traced
	Moves  string  // per-layer only
}

// endToEnd is measured with tracing off and is defined for every workload.
// An operation is one harness.Run (ppf-detail, hwpf-replay, engines-approx),
// one figure (figure-suite) or one request (serve-mix); a pass is the
// workload's fixed list of them.
//
// The bounds come from ten runs on ten seeds per workload on the reference
// host, made twice (README, "Reference-host numbers"). Back to back the
// time-based metrics spread 1 to 8 % between runs (quartile distance over
// median), but the host's speed drifts 13 to 25 % from hour to hour, so they
// carry the widest bound the contract allows; the allocation counters spread
// under 1 %. sim_mops_per_s and req_per_s are a pass's op counts over wall_s:
// for one seed the three are one measurement in three units.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_mops_per_s", Unit: "Mops/s", Better: "higher", Bound: 0.25},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "mallocs_m", Unit: "M", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

func def(name, unit, better, kind, moves string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Kind: kind, Moves: moves}
}

const (
	simAll    = "sim_mops_per_s on the four simulation workloads"
	replay    = "sim_mops_per_s on hwpf-replay"
	detail    = "sim_mops_per_s on ppf-detail"
	figures   = "wall_s on figure-suite"
	engines   = "wall_s on engines-approx"
	serveHit  = "lat_p50_ms, req_per_s on serve-mix"
	serveMiss = "wall_s, sim_mops_per_s on serve-mix"
	noneOff   = "none: every untraced run has no bus and no spans"
)

// perLayer comes from the traced run. The contract has every workload print
// every one, so a count reads 0 on a workload that does not pass through the
// layer (no tracein outside hwpf-replay, no serve outside serve-mix). A layer
// the workload does run is never left unmeasured: TestSmokeTraced checks the
// simulator's counts on all five.
var perLayer = []metricDef{
	def("sim.events", "count", "lower", "count", simAll+", most on hwpf-replay; not lat_p50_ms on serve-mix"),
	def("sim.events_per_op", "1/op", "lower", "count", simAll),
	def("sim.ns_per_event", "ns", "lower", "probe", simAll),
	def("sim.est_share", "share", "lower", "share", simAll),

	def("cpu.ops", "count", "higher", "count", simAll),
	def("cpu.ipc", "1/cycle", "higher", "count", "simulated result, no host metric"),
	def("cpu.mispredict_ratio", "ratio", "lower", "count", "simulated result, no host metric"),
	def("cpu.busy_ns_per_op", "ns", "lower", "probe", detail),
	def("cpu.stalled_ns_per_op", "ns", "lower", "probe", replay),
	def("cpu.est_share", "share", "lower", "share", simAll),

	def("ir.ns_per_op", "ns", "lower", "probe", "sim_mops_per_s on ppf-detail, figure-suite, engines-approx; none on hwpf-replay"),
	def("ir.est_share", "share", "lower", "share", "as ir.ns_per_op"),

	def("mem.l1_accesses", "count", "lower", "count", simAll),
	def("mem.l1_miss_ratio", "ratio", "lower", "count", "simulated result"),
	def("mem.l1_mshr_merges", "count", "lower", "count", "simulated result"),
	def("mem.l1_mshr_stalls", "count", "lower", "count", "simulated result"),
	def("mem.l2_miss_ratio", "ratio", "lower", "count", "simulated result"),
	def("mem.dram_reads", "count", "lower", "count", simAll),
	def("mem.dram_row_hit_ratio", "ratio", "higher", "count", "simulated result"),
	def("mem.dram_wait_cycles_per_read", "cycles", "lower", "count", "simulated result"),
	def("mem.tlb_accesses", "count", "lower", "count", simAll),
	def("mem.tlb_walks", "count", "lower", "count", simAll),
	def("mem.l1_hit_ns", "ns", "lower", "probe", simAll+", mallocs_m; largest on ppf-detail"),
	def("mem.l1_miss_ns", "ns", "lower", "probe", simAll+", mallocs_m; largest on ppf-detail"),
	def("mem.tlb_hit_ns", "ns", "lower", "probe", simAll),
	def("mem.tlb_walk_ns", "ns", "lower", "probe", simAll),
	def("mem.dram_ns_per_access", "ns", "lower", "probe", simAll),
	def("mem.pool_get_put_ns", "ns", "lower", "probe", "mallocs_m on the simulation workloads"),
	def("mem.est_share", "share", "lower", "share", simAll),

	def("prefetch.observations", "count", "lower", "count", detail),
	def("prefetch.kernel_runs", "count", "lower", "count", detail),
	def("prefetch.generated", "count", "lower", "count", detail),
	def("prefetch.issued", "count", "lower", "count", detail),
	def("prefetch.obs_dropped", "count", "lower", "count", "simulated result"),
	def("prefetch.req_dropped", "count", "lower", "count", "simulated result"),
	def("prefetch.tlb_drops", "count", "lower", "count", "simulated result"),
	def("prefetch.mshr_drops", "count", "lower", "count", "simulated result"),
	def("prefetch.useful_ratio", "ratio", "higher", "count", "simulated result"),
	def("prefetch.late_ratio", "ratio", "lower", "count", "simulated result"),
	def("prefetch.ns_per_observation", "ns", "lower", "probe", detail+" and the programmable columns of figure-suite; none on hwpf-replay"),
	def("prefetch.est_share", "share", "lower", "share", detail),

	def("ppu.ns_per_instr", "ns", "lower", "probe", detail),
	def("ppu.assemble_us", "us", "lower", "probe", detail+" (small)"),
	def("ppu.activity_max", "ratio", "lower", "count", "simulated result"),

	def("baseline.generated", "count", "lower", "count", replay),
	def("baseline.issued", "count", "lower", "count", replay),
	def("baseline.drop_ratio", "ratio", "lower", "count", "simulated result"),
	def("baseline.useful_ratio", "ratio", "higher", "count", "simulated result"),
	def("baseline.stride_ns_per_access", "ns", "lower", "probe", replay),
	def("baseline.rpt_ns_per_access", "ns", "lower", "probe", replay),
	def("baseline.ghb-regular_ns_per_access", "ns", "lower", "probe", replay),
	def("baseline.ghb-delta_ns_per_access", "ns", "lower", "probe", replay),
	def("baseline.tskid_ns_per_access", "ns", "lower", "probe", replay),
	def("baseline.no-pf_wall_s", "s", "lower", "traced", replay),
	def("baseline.stride_wall_s", "s", "lower", "traced", replay),
	def("baseline.rpt_wall_s", "s", "lower", "traced", replay),
	def("baseline.ghb-regular_wall_s", "s", "lower", "traced", replay),
	def("baseline.ghb-delta_wall_s", "s", "lower", "traced", replay),
	def("baseline.tskid_wall_s", "s", "lower", "traced", replay),

	def("adaptive.switches", "count", "lower", "count", "simulated result"),
	def("adaptive.pair_wall_s", "s", "lower", "traced", "wall_s on ppf-detail (its two adaptive pairs only)"),

	def("tracein.ops_decoded", "count", "lower", "count", replay),
	def("tracein.bytes_per_op", "B/op", "lower", "count", replay),
	def("tracein.decode_mops_per_s", "Mops/s", "higher", "probe", replay),
	def("tracein.decode_mb_per_s", "MB/s", "higher", "probe", replay),
	def("tracein.encode_mops_per_s", "Mops/s", "higher", "probe", "setup_s on hwpf-replay"),
	def("tracein.est_share", "share", "lower", "share", replay),

	def("compiler.convert_us", "us", "lower", "probe", figures+" (small)"),
	def("compiler.pragma_us", "us", "lower", "probe", figures+" (small)"),
	def("compiler.autoswpf_us", "us", "lower", "probe", "none: no workload runs the pass"),

	def("workloads.build_ms", "ms", "lower", "workload-probe", figures+"; lat_p50_ms on figure-suite; "+serveMiss),
	def("workloads.build_share", "share", "lower", "share", "as workloads.build_ms"),

	def("system.new_us", "us", "lower", "probe", figures+", alloc_mb on figure-suite"),
	def("system.fork_ms", "ms", "lower", "probe", engines+"; Fig9a in figure-suite"),
	def("system.digest_ms", "ms", "lower", "probe", "none: checkpoints only"),
	def("system.sliced_speedup_x", "x", "higher", "count", engines),
	def("system.sampled_speedup_x", "x", "higher", "count", engines),
	def("system.sliced_warm_ops_ratio", "ratio", "lower", "count", engines),
	def("system.sampled_detail_ratio", "ratio", "lower", "count", engines),
	def("system.sliced_cpi_err_pct", "%", "lower", "count", "accuracy of engines-approx, beside its wall_s"),
	def("system.sampled_cpi_err_pct", "%", "lower", "count", "accuracy of engines-approx, beside its wall_s"),
	def("system.unattributed_share", "share", "lower", "share", "what the probes do not explain"),

	def("harness.memo_hits", "count", "higher", "count", figures),
	def("harness.memo_misses", "count", "lower", "count", figures+", alloc_mb on figure-suite"),
	def("harness.pool_utilisation", "ratio", "higher", "count", figures),
	def("harness.fig7_wall_s", "s", "lower", "traced", figures),
	def("harness.fig9a_wall_s", "s", "lower", "traced", figures),
	def("harness.fig11_wall_s", "s", "lower", "traced", figures),
	def("harness.paper_err_pct", "%", "lower", "count", "fidelity of figure-suite to the paper's 3.0x headline"),
	def("harness.memo_hit_ns", "ns", "lower", "probe", figures+"; "+serveMiss),
	def("harness.encode_us", "us", "lower", "probe", serveMiss),
	def("harness.resolve_key_us", "us", "lower", "probe", serveHit),

	def("serve.requests", "count", "higher", "count", "req_per_s on serve-mix"),
	def("serve.hit_ratio", "ratio", "higher", "count", serveHit),
	def("serve.dedup", "count", "higher", "count", serveMiss),
	def("serve.retries_429", "count", "lower", "count", "req_per_s on serve-mix"),
	def("serve.resimulated", "count", "lower", "count", "must be 0"),
	def("serve.req_per_s", "1/s", "higher", "count", "req_per_s on serve-mix"),
	def("serve.hit_lat_p50_us", "us", "lower", "count", serveHit),
	def("serve.hit_lat_p99_us", "us", "lower", "count", serveHit),
	def("serve.miss_lat_p50_ms", "ms", "lower", "count", serveMiss),
	def("serve.miss_lat_p90_ms", "ms", "lower", "count", serveMiss),
	def("serve.lat_tail_ms", "ms", "lower", "count", serveMiss+" (falls in the miss population)"),
	def("serve.lat_tail_pct", "pct", "higher", "count", "which percentile serve.lat_tail_ms is"),
	def("serve.lat_samples", "count", "higher", "count", "sample count behind the serve latencies"),
	def("serve.hit_handler_us", "us", "lower", "probe", serveHit),
	def("serve.metrics_scrape_us", "us", "lower", "probe", "none: scrapes are outside the timed step"),

	def("trace.bus_overhead_pct", "%", "lower", "probe", noneOff),
	def("trace.span_overhead_pct", "%", "lower", "share", noneOff),
}

// exact lists the per-layer metrics that are simulated results or program
// counters: for one seed they must repeat exactly between runs of the same
// code, and -compare reports any difference. Counts that depend on request
// interleaving (serve.dedup, serve.hit_ratio) and every timing are left out.
func exact(d metricDef) bool {
	if d.Kind != "count" {
		return false
	}
	switch d.Name {
	case "harness.pool_utilisation", "system.sliced_speedup_x", "system.sampled_speedup_x",
		"serve.hit_ratio", "serve.dedup", "serve.retries_429", "serve.req_per_s",
		"serve.hit_lat_p50_us", "serve.hit_lat_p99_us", "serve.miss_lat_p50_ms", "serve.miss_lat_p90_ms",
		"serve.lat_tail_ms":
		return false
	}
	return true
}

func findMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
