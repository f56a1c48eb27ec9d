package harness

// Ablation studies for the design choices DESIGN.md calls out: each
// sweeps one mechanism while holding the workload mix fixed, exposing how
// much that mechanism contributes to the consolidated system's behaviour.

import (
	"fmt"

	"consim/internal/core"
	"consim/internal/memctrl"
	"consim/internal/sched"
	"consim/internal/sim"
	"consim/internal/stats"
	"consim/internal/workload"
)

// ablationMix is the default subject: Mix 8 (2x SPECjbb + 2x TPC-W), the
// paper's highest-interference heterogeneous pairing.
func ablationMix() []workload.Spec {
	all := workload.Specs()
	return []workload.Spec{all[workload.SPECjbb], all[workload.SPECjbb], all[workload.TPCW], all[workload.TPCW]}
}

func (r *Runner) ablationConfig() core.Config {
	cfg := core.DefaultConfig(ablationMix()...)
	cfg.GroupSize = 4
	cfg.Policy = sched.Affinity
	cfg.Scale = r.opt.Scale
	cfg.Seed = r.opt.Seed
	cfg.WarmupRefs = r.opt.WarmupRefs
	cfg.MeasureRefs = r.opt.MeasureRefs
	return cfg
}

// meanMissLat returns the VM-averaged private-miss latency.
func meanMissLat(res core.Result) float64 {
	sum := 0.0
	for _, v := range res.VMs {
		sum += v.AvgMissLatency()
	}
	return sum / float64(len(res.VMs))
}

// meanMissRate returns the VM-averaged LLC miss rate.
func meanMissRate(res core.Result) float64 {
	sum := 0.0
	for _, v := range res.VMs {
		sum += v.MissRate()
	}
	return sum / float64(len(res.VMs))
}

// throughput returns total measured references per kilocycle.
func throughput(res core.Result) float64 {
	var refs uint64
	for _, v := range res.VMs {
		refs += v.Stats.Refs
	}
	return 1000 * float64(refs) / float64(res.Cycles)
}

// ablationSweep runs ablationConfig once per value, changed by set, and
// adds one row per value, labeled with it, holding row's columns.
func ablationSweep[T ~int | ~uint64](r *Runner, t *Table, values []T, set func(*core.Config, T), row func(core.Result) []float64) (*Table, error) {
	cfgs := make([]core.Config, len(values))
	for i, v := range values {
		cfgs[i] = r.ablationConfig()
		set(&cfgs[i], v)
	}
	results, err := r.RunConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		t.Add(fmt.Sprintf("%d", values[i]), row(res)...)
	}
	return t, nil
}

// ablateDirCache sweeps the per-node directory cache size, showing how
// much on-chip directory state shields cache-to-cache transfers from
// DRAM directory fetches.
func (r *Runner) ablateDirCache() (*Table, error) {
	t := &Table{
		ID:      "A1",
		Title:   "Ablation: directory cache size (Mix 8, shared-4-way, affinity)",
		RowHead: "entries/node",
		Columns: []string{"dir hit rate", "miss latency", "throughput"},
	}
	t.Note("larger directory caches keep coherence lookups on chip; the paper adds them \"to reduce the number of off-chip references\"")
	return ablationSweep(r, t, []int{256, 1024, 4096, 16384, 65536},
		func(cfg *core.Config, entries int) { cfg.DirCacheEntries = entries },
		func(res core.Result) []float64 {
			return []float64{res.DirCacheHitRate, meanMissLat(res), throughput(res)}
		})
}

// ablateMemControllers sweeps the number of memory controllers, showing
// controller queueing under consolidated pressure.
func (r *Runner) ablateMemControllers() (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "Ablation: memory controllers (Mix 8, shared-4-way, affinity)",
		RowHead: "controllers",
		Columns: []string{"mem queue wait", "miss latency", "throughput"},
	}
	t.Note("fewer controllers concentrate demand; queueing grows as cache interference pushes more requests off chip")
	layouts := map[int][]int{
		1: {0},
		2: {0, 15},
		4: {0, 3, 12, 15},
		8: {0, 1, 2, 3, 12, 13, 14, 15},
	}
	return ablationSweep(r, t, []int{1, 2, 4, 8},
		func(cfg *core.Config, n int) {
			cfg.Mem = memctrl.Config{Controllers: n, Latency: core.DefaultMemLatency, Occupancy: 20, Nodes: layouts[n]}
		},
		func(res core.Result) []float64 { return []float64{res.MemAvgWait, meanMissLat(res), throughput(res)} })
}

// ablateRouterPipeline sweeps the mesh router depth, separating wire/
// router latency from cache behaviour.
func (r *Runner) ablateRouterPipeline() (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   "Ablation: router pipeline depth (Mix 8, shared-4-way, affinity)",
		RowHead: "stages",
		Columns: []string{"miss latency", "miss rate", "throughput"},
	}
	t.Note("deeper routers stretch every coherence and memory round trip; miss *rates* stay fixed (content is latency-independent)")
	return ablationSweep(r, t, []int{1, 2, 3, 5},
		func(cfg *core.Config, stages int) { cfg.PipeStages = stages },
		func(res core.Result) []float64 {
			return []float64{meanMissLat(res), meanMissRate(res), throughput(res)}
		})
}

// ablateTimeslice sweeps the hypervisor quantum for an over-committed
// machine (6 VMs on 16 cores), the §VII over-commitment study.
func (r *Runner) ablateTimeslice() (*Table, error) {
	t := &Table{
		ID:      "A4",
		Title:   "Ablation: over-commit timeslice (6 VMs x 4 threads on 16 cores)",
		RowHead: "quantum (cycles)",
		Columns: []string{"switches/Mcycle", "miss rate", "throughput"},
	}
	t.Note("short quanta churn the private caches and pay hypervisor switch costs; long quanta starve co-runners between rotations")
	all := workload.Specs()
	return ablationSweep(r, t, []sim.Cycle{2_000, 10_000, 50_000, 250_000},
		func(cfg *core.Config, q sim.Cycle) {
			cfg.Workloads = []workload.Spec{
				all[workload.SPECjbb], all[workload.SPECjbb],
				all[workload.TPCW], all[workload.TPCW],
				all[workload.TPCH], all[workload.TPCH],
			}
			cfg.TimesliceCycles = q
		},
		func(res core.Result) []float64 {
			perM := float64(res.Switches) / (float64(res.Cycles) / 1e6)
			return []float64{perM, meanMissRate(res), throughput(res)}
		})
}

// variabilityStudy quantifies run-to-run variability per the
// Alameldeen-Wood methodology §V adopts: each mix runs with several
// perturbed seeds and reports the mean, 95% confidence half-width and
// coefficient of variation of the per-VM cycles-per-transaction.
func (r *Runner) variabilityStudy(replicates int) (*Table, error) {
	if replicates < 2 {
		replicates = 5
	}
	t := &Table{
		ID:      "A5",
		Title:   fmt.Sprintf("Variability: cycles/tx across %d perturbed seeds (shared-4-way, affinity)", replicates),
		RowHead: "mix/vm",
		Columns: []string{"mean cyc/tx", "ci95", "cv"},
	}
	// Flatten mixes x replicates into one batch so every replicate of
	// every mix runs through the worker pool concurrently.
	mixIDs := []string{"B", "5", "8"}
	mixes := make([]Mix, len(mixIDs))
	var cfgs []core.Config
	all := workload.Specs()
	for m, mixID := range mixIDs {
		mix, err := MixByID(mixID)
		if err != nil {
			return nil, err
		}
		mixes[m] = mix
		specs := make([]workload.Spec, len(mix.Classes))
		for i, c := range mix.Classes {
			specs[i] = all[c]
		}
		for rep := 0; rep < replicates; rep++ {
			cfg := r.ablationConfig()
			cfg.Workloads = specs
			cfg.Seed = r.opt.Seed + uint64(rep)*7919
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := r.RunConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	for m, mix := range mixes {
		perVM := make([]stats.Sample, len(mix.Classes))
		for rep := 0; rep < replicates; rep++ {
			res := results[m*replicates+rep]
			for v := range res.VMs {
				perVM[v].Add(res.VMs[v].CyclesPerTx)
			}
		}
		for v := range perVM {
			t.Add(fmt.Sprintf("%s vm%d %s", mix.ID, v, mix.Classes[v]),
				perVM[v].Mean(), perVM[v].CI95(), perVM[v].CV())
		}
	}
	t.Note("per Alameldeen & Wood (HPCA'03): multi-threaded runs vary across perturbations; report means with confidence intervals")
	return t, nil
}

// ablateMemoryLatency sweeps the off-chip latency, quantifying §V's
// observation that "the commercial workloads studied are sensitive to
// miss latency".
func (r *Runner) ablateMemoryLatency() (*Table, error) {
	t := &Table{
		ID:      "A6",
		Title:   "Ablation: memory latency (Mix 8, shared-4-way, affinity)",
		RowHead: "DRAM cycles",
		Columns: []string{"miss latency", "miss rate", "throughput"},
	}
	t.Note("throughput falls near-linearly with DRAM latency on blocking in-order cores; miss rates stay fixed")
	return ablationSweep(r, t, []sim.Cycle{75, 150, 300, 600},
		func(cfg *core.Config, lat sim.Cycle) {
			cfg.Mem = memctrl.DefaultConfig()
			cfg.Mem.Latency = lat
		},
		func(res core.Result) []float64 {
			return []float64{meanMissLat(res), meanMissRate(res), throughput(res)}
		})
}

// ablations lists the ablation studies.
var ablations = []study{
	{"A1", (*Runner).ablateDirCache},
	{"A2", (*Runner).ablateMemControllers},
	{"A3", (*Runner).ablateRouterPipeline},
	{"A4", (*Runner).ablateTimeslice},
	{"A5", func(r *Runner) (*Table, error) { return r.variabilityStudy(5) }},
	{"A6", (*Runner).ablateMemoryLatency},
}

// AblationIDs lists the ablation studies.
func AblationIDs() []string { return studyIDs(ablations) }

// RunAblation dispatches an ablation by ID.
func (r *Runner) RunAblation(id string) (*Table, error) {
	run, err := lookup(ablations, "ablation", id)
	if err != nil {
		return nil, err
	}
	return run(r)
}
