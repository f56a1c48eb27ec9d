package main

import (
	"runtime"

	"consim"
)

// workload is one named set of inputs. Every workload is closed-loop
// and single-process: one simulation (or one figure sweep) at a time,
// each rep on freshly built state so memoisation never shortens a rep.
// Budgets are per core.
type workload struct {
	name string
	why  string

	// config builds the simulation for a seed. Nil for the figure sweep,
	// which sets sweep instead.
	config func(seed uint64) consim.Config
	// sweep builds the runner options and figure list for a seed.
	sweep func(seed uint64) (consim.RunnerOptions, []string)

	// reference builds the sequential run an engine workload's per-VM
	// error is measured against (referenceName says which it is);
	// errBound is that error's budget for one finished engine run. All
	// three are unset on sequential workloads.
	reference     func(seed uint64) consim.Config
	referenceName string
	errBound      func(res consim.Result) float64

	// table2 marks the workload whose set-up is Table II's (isolated,
	// private LLCs), so it carries the paper-fidelity metric.
	table2 bool
}

// sweepFigures is the figure list of the figsweep workload; the
// harness.fig_*_s metrics are named after it.
var sweepFigures = []string{"T2", "F2", "F8", "F12"}

// workloads returns the benchmark's workloads in reporting order. The
// two engine workloads live in engines.go so that deleting an engine is
// a one-file change here.
func workloads() []workload {
	ws := []workload{
		{
			name: "iso_tpch_shared",
			why:  "one TPC-H VM on a fully shared LLC: almost no LLC misses, so generator, L0/L1, event queue and the directory table do the work; dircache and memctrl changes should show nothing",
			config: func(seed uint64) consim.Config {
				return isoTPCH(seed, 16)
			},
		},
		{
			name: "iso_tpch_private",
			why:  "same VM and stream on private LLCs: cache-to-cache transfers are 10% of refs and invalidations 6%, so dircache, invalidation walk, mesh and memctrl show; Table II's set-up, so it carries table2_err",
			config: func(seed uint64) consim.Config {
				return isoTPCH(seed, 1)
			},
			table2: true,
		},
		{
			name: "mix4_paper",
			why:  "the paper's 4-VM consolidated mix at paper scale: simulated state far exceeds host caches and the LLC insert/evict and memctrl paths are hot, so data-layout changes show here",
			config: func(seed uint64) consim.Config {
				return mix4(seed, 1, consim.RoundRobin, 30_000, 60_000)
			},
		},
		{
			name:   "mix4_s16",
			why:    "same mix at scale 16: same code paths on 1/16 the host working set, so instruction-count changes show and layout ones do not; sequential reference for the sampled workload",
			config: mix4S16,
		},
	}
	ws = append(ws, engineWorkloads()...)
	ws = append(ws, workload{
		name: "figsweep",
		why:  "RunFigures(T2,F2,F8,F12) at scale 16: dozens of short simulations, bound by set-up cost, single-flight dedup and worker-pool use, not by per-reference speed",
		sweep: func(seed uint64) (consim.RunnerOptions, []string) {
			return consim.RunnerOptions{
				Scale:       16,
				WarmupRefs:  1_000,
				MeasureRefs: 4_000,
				Seed:        seed,
				Parallel:    runtime.GOMAXPROCS(0),
			}, sweepFigures
		},
	})
	return ws
}

// sweepFirstSim is the first simulation a sweep starting with T2 builds
// (TPC-W isolated on private LLCs under affinity placement), with the
// runner's scale, seed and budgets. The sweep's set-up time is building
// the runner plus this system: what happens before the sweep simulates
// its first reference.
func sweepFirstSim(opt consim.RunnerOptions) consim.Config {
	cfg := consim.DefaultConfig(consim.WorkloadSpecs()[consim.TPCW])
	cfg.GroupSize = 1
	cfg.Policy = consim.Affinity
	cfg.Scale = opt.Scale
	cfg.Seed = opt.Seed
	cfg.WarmupRefs, cfg.MeasureRefs = opt.WarmupRefs, opt.MeasureRefs
	return cfg
}

// isoTPCH is one TPC-H VM alone on the 16-core machine at paper scale
// (default affinity placement), with the given LLC group size.
func isoTPCH(seed uint64, groupSize int) consim.Config {
	cfg := consim.DefaultConfig(consim.WorkloadSpecs()[consim.TPCH])
	cfg.GroupSize = groupSize
	cfg.Seed = seed
	cfg.WarmupRefs, cfg.MeasureRefs = 400_000, 400_000
	return cfg
}

// mix4 is the paper's headline consolidated case: TPC-W, SPECjbb, TPC-H
// and SPECweb on shared-4-way LLCs. Round-robin placement spreads every
// VM over all four bank groups, so replication, cache-to-cache transfers
// and invalidations are all live; affinity confines each VM to one group.
func mix4(seed uint64, scale int, policy consim.Policy, warm, measure uint64) consim.Config {
	s := consim.WorkloadSpecs()
	cfg := consim.DefaultConfig(s[consim.TPCW], s[consim.SPECjbb], s[consim.TPCH], s[consim.SPECweb])
	cfg.GroupSize = 4
	cfg.Policy = policy
	cfg.Scale = scale
	cfg.Seed = seed
	cfg.WarmupRefs, cfg.MeasureRefs = warm, measure
	return cfg
}

// mix4S16 is the mix4_s16 workload's configuration, shared with the
// engine workloads that are judged against it.
func mix4S16(seed uint64) consim.Config {
	return mix4(seed, 16, consim.RoundRobin, 20_000, 40_000)
}

// quickDivisor shrinks every reference budget under -quick.
const quickDivisor = 5

// shrink divides a configuration's reference budgets for -quick.
func shrink(cfg *consim.Config) {
	cfg.WarmupRefs /= quickDivisor
	cfg.MeasureRefs /= quickDivisor
	cfg.Sample.MaxRefs /= quickDivisor
}

// workloadByName finds a workload by its name.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
