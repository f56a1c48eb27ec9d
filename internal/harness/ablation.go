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

// AblateDirCache sweeps the per-node directory cache size, showing how
// much on-chip directory state shields cache-to-cache transfers from
// DRAM directory fetches.
func (r *Runner) AblateDirCache() (*Table, error) {
	t := &Table{
		ID:      "A1",
		Title:   "Ablation: directory cache size (Mix 8, shared-4-way, affinity)",
		RowHead: "entries/node",
		Columns: []string{"dir hit rate", "miss latency", "throughput"},
	}
	sizes := []int{256, 1024, 4096, 16384, 65536}
	cfgs := make([]core.Config, len(sizes))
	for i, entries := range sizes {
		cfgs[i] = r.ablationConfig()
		cfgs[i].DirCacheEntries = entries
	}
	results, err := r.RunConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		t.Add(fmt.Sprintf("%d", sizes[i]), res.DirCacheHitRate, meanMissLat(res), throughput(res))
	}
	t.Note("larger directory caches keep coherence lookups on chip; the paper adds them \"to reduce the number of off-chip references\"")
	return t, nil
}

// AblateMemControllers sweeps the number of memory controllers, showing
// controller queueing under consolidated pressure.
func (r *Runner) AblateMemControllers() (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "Ablation: memory controllers (Mix 8, shared-4-way, affinity)",
		RowHead: "controllers",
		Columns: []string{"mem queue wait", "miss latency", "throughput"},
	}
	layouts := map[int][]int{
		1: {0},
		2: {0, 15},
		4: {0, 3, 12, 15},
		8: {0, 1, 2, 3, 12, 13, 14, 15},
	}
	counts := []int{1, 2, 4, 8}
	cfgs := make([]core.Config, len(counts))
	for i, n := range counts {
		cfgs[i] = r.ablationConfig()
		cfgs[i].Mem = memctrl.Config{
			Controllers: n,
			Latency:     core.DefaultMemLatency,
			Occupancy:   20,
			Nodes:       layouts[n],
		}
	}
	results, err := r.RunConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		t.Add(fmt.Sprintf("%d", counts[i]), res.MemAvgWait, meanMissLat(res), throughput(res))
	}
	t.Note("fewer controllers concentrate demand; queueing grows as cache interference pushes more requests off chip")
	return t, nil
}

// AblateRouterPipeline sweeps the mesh router depth, separating wire/
// router latency from cache behaviour.
func (r *Runner) AblateRouterPipeline() (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   "Ablation: router pipeline depth (Mix 8, shared-4-way, affinity)",
		RowHead: "stages",
		Columns: []string{"miss latency", "miss rate", "throughput"},
	}
	depths := []int{1, 2, 3, 5}
	cfgs := make([]core.Config, len(depths))
	for i, stages := range depths {
		cfgs[i] = r.ablationConfig()
		cfgs[i].PipeStages = stages
	}
	results, err := r.RunConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		t.Add(fmt.Sprintf("%d", depths[i]), meanMissLat(res), meanMissRate(res), throughput(res))
	}
	t.Note("deeper routers stretch every coherence and memory round trip; miss *rates* stay fixed (content is latency-independent)")
	return t, nil
}

// AblateTimeslice sweeps the hypervisor quantum for an over-committed
// machine (6 VMs on 16 cores), the §VII over-commitment study.
func (r *Runner) AblateTimeslice() (*Table, error) {
	t := &Table{
		ID:      "A4",
		Title:   "Ablation: over-commit timeslice (6 VMs x 4 threads on 16 cores)",
		RowHead: "quantum (cycles)",
		Columns: []string{"switches/Mcycle", "miss rate", "throughput"},
	}
	all := workload.Specs()
	quanta := []sim.Cycle{2_000, 10_000, 50_000, 250_000}
	cfgs := make([]core.Config, len(quanta))
	for i, q := range quanta {
		cfg := core.DefaultConfig(
			all[workload.SPECjbb], all[workload.SPECjbb],
			all[workload.TPCW], all[workload.TPCW],
			all[workload.TPCH], all[workload.TPCH],
		)
		cfg.GroupSize = 4
		cfg.Scale = r.opt.Scale
		cfg.Seed = r.opt.Seed
		cfg.WarmupRefs = r.opt.WarmupRefs
		cfg.MeasureRefs = r.opt.MeasureRefs
		cfg.TimesliceCycles = q
		cfgs[i] = cfg
	}
	results, err := r.RunConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		perM := float64(res.Switches) / (float64(res.Cycles) / 1e6)
		t.Add(fmt.Sprintf("%d", quanta[i]), perM, meanMissRate(res), throughput(res))
	}
	t.Note("short quanta churn the private caches and pay hypervisor switch costs; long quanta starve co-runners between rotations")
	return t, nil
}

// VariabilityStudy quantifies run-to-run variability per the
// Alameldeen-Wood methodology §V adopts: each mix runs with several
// perturbed seeds and reports the mean, 95% confidence half-width and
// coefficient of variation of the per-VM cycles-per-transaction.
func (r *Runner) VariabilityStudy(replicates int) (*Table, error) {
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

// AblateMemoryLatency sweeps the off-chip latency, quantifying §V's
// observation that "the commercial workloads studied are sensitive to
// miss latency".
func (r *Runner) AblateMemoryLatency() (*Table, error) {
	t := &Table{
		ID:      "A6",
		Title:   "Ablation: memory latency (Mix 8, shared-4-way, affinity)",
		RowHead: "DRAM cycles",
		Columns: []string{"miss latency", "miss rate", "throughput"},
	}
	lats := []sim.Cycle{75, 150, 300, 600}
	cfgs := make([]core.Config, len(lats))
	for i, lat := range lats {
		cfgs[i] = r.ablationConfig()
		cfgs[i].Mem = memctrl.DefaultConfig()
		cfgs[i].Mem.Latency = lat
	}
	results, err := r.RunConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		t.Add(fmt.Sprintf("%d", lats[i]), meanMissLat(res), meanMissRate(res), throughput(res))
	}
	t.Note("throughput falls near-linearly with DRAM latency on blocking in-order cores; miss rates stay fixed")
	return t, nil
}

// AblationIDs lists the ablation studies.
func AblationIDs() []string { return []string{"A1", "A2", "A3", "A4", "A5", "A6"} }

// RunAblation dispatches an ablation by ID.
func (r *Runner) RunAblation(id string) (*Table, error) {
	switch id {
	case "A1":
		return r.AblateDirCache()
	case "A2":
		return r.AblateMemControllers()
	case "A3":
		return r.AblateRouterPipeline()
	case "A4":
		return r.AblateTimeslice()
	case "A5":
		return r.VariabilityStudy(5)
	case "A6":
		return r.AblateMemoryLatency()
	}
	return nil, fmt.Errorf("harness: unknown ablation %q", id)
}
