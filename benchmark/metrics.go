package main

// metricDef names one metric the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units, directions and
// bounds; TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare (and the driver) calls it a
	// regression. Per-layer metrics have none.
	Bound float64
	// Floor is an absolute difference -compare ignores: below it the
	// metric's own quantisation is larger than any real change.
	Floor float64
	// Moves says, for a per-layer metric, which end-to-end metric it
	// should move and on which workload.
	Moves string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{Name: "refs_per_s", Unit: "refs/s", Better: "higher", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.005},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "allocs_per_mref", Unit: "allocs/Mref", Better: "lower", Bound: 0.10, Floor: 20},
}

// Interaction notes shared by several per-layer rows.
const (
	movesSeq      = "refs_per_s on iso_tpch_shared and mix4_s16; small share on mix4_paper"
	movesPrivate  = "refs_per_s on iso_tpch_shared"
	movesLLC      = "refs_per_s on mix4_paper (insert/evict path); miss ratios must not move under a speed-only change"
	movesCoh      = "refs_per_s on iso_tpch_private; near-zero share on iso_tpch_shared"
	movesMesh     = "refs_per_s on iso_tpch_private and mix4_paper"
	movesMem      = "refs_per_s on mix4_paper; not iso_tpch_shared"
	movesCore     = "refs_per_s on the sequential workloads"
	movesPdes     = "refs_per_s on mix4_s16_pdes2; 0 elsewhere"
	movesSample   = "wall_s on mix4_s16_sampled; 0 elsewhere"
	movesHarness  = "wall_s on figsweep; 0 elsewhere"
	movesFidelity = "simulated statistic: identical per (seed, knobs), must not move under a speed-only change"
	movesReplay   = "none: the staged replay's own ratio, printed beside the observed one so drift shows"
)

// perLayer are the metrics of single layers, taken from the traced
// pass. Layer names are module names. *_ns values are host time per
// operation from the staged replay; counts and ratios are exact from
// the observed run unless the unit column of the README marks them
// estimated. A metric that is undefined on a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "workload.refs", Unit: "count", Better: "higher", Moves: movesSeq},
	{Name: "workload.next_ns", Unit: "ns", Better: "lower", Moves: movesSeq},
	{Name: "workload.share", Unit: "ratio", Better: "lower", Moves: movesSeq},

	{Name: "sim.eventq_ops", Unit: "count", Better: "lower", Moves: movesSeq},
	{Name: "sim.eventq_ns", Unit: "ns", Better: "lower", Moves: movesSeq},
	{Name: "sim.eventq_share", Unit: "ratio", Better: "lower", Moves: movesSeq},

	{Name: "cache.l0_accesses", Unit: "count", Better: "lower", Moves: movesPrivate},
	{Name: "cache.l0_miss_ratio", Unit: "ratio", Better: "lower", Moves: movesFidelity},
	{Name: "cache.l1_accesses", Unit: "count", Better: "lower", Moves: movesPrivate},
	{Name: "cache.l1_miss_ratio", Unit: "ratio", Better: "lower", Moves: movesFidelity},
	{Name: "cache.private_ns", Unit: "ns", Better: "lower", Moves: movesPrivate},
	{Name: "cache.private_share", Unit: "ratio", Better: "lower", Moves: movesPrivate},
	{Name: "cache.llc_accesses", Unit: "count", Better: "lower", Moves: movesLLC},
	{Name: "cache.llc_miss_ratio", Unit: "ratio", Better: "lower", Moves: movesFidelity},
	{Name: "cache.llc_evictions", Unit: "count", Better: "lower", Moves: movesLLC},
	{Name: "cache.llc_ns", Unit: "ns", Better: "lower", Moves: movesLLC},
	{Name: "cache.llc_share", Unit: "ratio", Better: "lower", Moves: movesLLC},
	{Name: "cache.replay_l0_miss_ratio", Unit: "ratio", Better: "lower", Moves: movesReplay},
	{Name: "cache.replay_l1_miss_ratio", Unit: "ratio", Better: "lower", Moves: movesReplay},
	{Name: "cache.replay_llc_miss_ratio", Unit: "ratio", Better: "lower", Moves: movesReplay},

	{Name: "coherence.dir_entries", Unit: "count", Better: "lower", Moves: movesCoh},
	{Name: "coherence.dir_ops", Unit: "count", Better: "lower", Moves: movesCoh},
	{Name: "coherence.dir_ns", Unit: "ns", Better: "lower", Moves: movesCoh},
	{Name: "coherence.dircache_accesses", Unit: "count", Better: "lower", Moves: movesCoh},
	{Name: "coherence.dircache_hit_ratio", Unit: "ratio", Better: "higher", Moves: movesFidelity},
	{Name: "coherence.dircache_ns", Unit: "ns", Better: "lower", Moves: movesCoh},
	{Name: "coherence.c2c_per_kref", Unit: "1/kref", Better: "lower", Moves: movesFidelity},
	{Name: "coherence.inval_per_kref", Unit: "1/kref", Better: "lower", Moves: movesFidelity},
	{Name: "coherence.upgrade_per_kref", Unit: "1/kref", Better: "lower", Moves: movesFidelity},
	{Name: "coherence.share", Unit: "ratio", Better: "lower", Moves: movesCoh},
	{Name: "coherence.table2_err", Unit: "ratio", Better: "lower", Moves: "fidelity on iso_tpch_private (Table II's set-up); 0 elsewhere"},
	{Name: "coherence.replay_dircache_hit_ratio", Unit: "ratio", Better: "higher", Moves: movesReplay},

	{Name: "mesh.transfers", Unit: "count", Better: "lower", Moves: movesMesh},
	{Name: "mesh.latency_ns", Unit: "ns", Better: "lower", Moves: movesMesh},
	{Name: "mesh.avg_hops", Unit: "count", Better: "lower", Moves: movesFidelity},
	{Name: "mesh.avg_wait_cycles", Unit: "cycles", Better: "lower", Moves: movesFidelity},
	{Name: "mesh.share", Unit: "ratio", Better: "lower", Moves: movesMesh},

	{Name: "memctrl.reads", Unit: "count", Better: "lower", Moves: movesMem},
	{Name: "memctrl.writebacks", Unit: "count", Better: "lower", Moves: movesMem},
	{Name: "memctrl.read_ns", Unit: "ns", Better: "lower", Moves: movesMem},
	{Name: "memctrl.avg_wait_cycles", Unit: "cycles", Better: "lower", Moves: movesFidelity},
	{Name: "memctrl.share", Unit: "ratio", Better: "lower", Moves: movesMem},

	{Name: "core.ns_per_ref", Unit: "ns", Better: "lower", Moves: movesCore},
	{Name: "core.self_share", Unit: "ratio", Better: "lower", Moves: movesCore},
	{Name: "core.llc_miss_rate", Unit: "ratio", Better: "lower", Moves: movesFidelity},
	{Name: "core.avg_miss_latency_cycles", Unit: "cycles", Better: "lower", Moves: movesFidelity},
	{Name: "core.cpt_geomean", Unit: "cycles", Better: "lower", Moves: movesFidelity},
	{Name: "core.sim_cycles", Unit: "cycles", Better: "lower", Moves: movesFidelity},
	{Name: "core.max_rel_err", Unit: "ratio", Better: "lower", Moves: "fidelity on mix4_s16_pdes2 and mix4_s16_sampled against mix4_s16; 0 elsewhere"},
	{Name: "core.pdes_speedup", Unit: "ratio", Better: "higher", Moves: movesPdes},
	{Name: "core.pdes_apply_frac", Unit: "ratio", Better: "lower", Moves: movesPdes},
	{Name: "core.pdes_stall_frac", Unit: "ratio", Better: "lower", Moves: movesPdes},
	{Name: "core.pdes_windows", Unit: "count", Better: "lower", Moves: movesPdes},
	{Name: "core.sample_speedup", Unit: "ratio", Better: "higher", Moves: movesSample},
	{Name: "core.sample_ff_cost_ratio", Unit: "ratio", Better: "lower", Moves: movesSample},
	{Name: "core.sample_windows", Unit: "count", Better: "lower", Moves: movesSample},
	{Name: "core.sample_rel_ci", Unit: "ratio", Better: "lower", Moves: movesSample},

	{Name: "harness.sims", Unit: "count", Better: "lower", Moves: movesHarness},
	{Name: "harness.jobs", Unit: "count", Better: "lower", Moves: movesHarness},
	{Name: "harness.pool_util", Unit: "ratio", Better: "higher", Moves: movesHarness},
	{Name: "harness.setup_share", Unit: "ratio", Better: "lower", Moves: movesHarness},
	{Name: "harness.fig_T2_s", Unit: "s", Better: "lower", Moves: movesHarness},
	{Name: "harness.fig_F2_s", Unit: "s", Better: "lower", Moves: movesHarness},
	{Name: "harness.fig_F8_s", Unit: "s", Better: "lower", Moves: movesHarness},
	{Name: "harness.fig_F12_s", Unit: "s", Better: "lower", Moves: movesHarness},

	{Name: "obs.overhead_frac", Unit: "ratio", Better: "lower", Moves: "none end to end (tracing is off there); guards the 3% telemetry budget"},
	{Name: "obs.spans", Unit: "count", Better: "lower", Moves: "none"},
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet pairs every definition in defs with its value in vals. A
// name missing from vals is a bug in the benchmark, not a measurement,
// so it panics.
func metricSet(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			panic("benchmark: metric " + d.Name + " was not measured")
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		panic("benchmark: measured a metric that is not declared")
	}
	return out
}
