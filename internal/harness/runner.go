package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"consim/internal/core"
	"consim/internal/obs"
	"consim/internal/sched"
	"consim/internal/sim"
	"consim/internal/stats"
	vmstats "consim/internal/vm"
	"consim/internal/workload"
)

// Options control the simulation scale for a whole experiment suite.
type Options struct {
	// Scale divides footprints and cache capacities (1 = paper scale).
	Scale int
	// WarmupRefs / MeasureRefs are per-core reference budgets.
	WarmupRefs  uint64
	MeasureRefs uint64
	// SnapshotRefs positions the Figure 12/13 snapshot inside the
	// measurement window (0 = at the end).
	SnapshotRefs uint64
	// Seed drives all randomness.
	Seed uint64
	// Parallel bounds the number of simulations in flight at once. Each
	// simulation is single-threaded and deterministic given its seed, so
	// parallelism changes wall time only, never results. 0 (the default)
	// means runtime.GOMAXPROCS(0); 1 forces fully serial execution.
	Parallel int
	// Sample enables interval-sampled simulation inside every compatible
	// simulation the runner executes (core.Config.Sample): detailed
	// measurement windows with functional fast-forward between them and
	// CI-convergence early stop. Sampled results are estimates — run
	// manifests record the achieved confidence interval. Configs that are
	// incompatible with sampling (dynamic rebalancing, over-committed
	// scheduling, mid-run snapshots) quietly run fully detailed, so a
	// sampled sweep can still include the ablation rows that need exact
	// semantics. Configs that already set their own Sample keep it.
	Sample core.SampleConfig
	// Pdes enables the split-transaction parallel discrete-event engine
	// inside every compatible simulation the runner executes
	// (core.Config.Pdes): 0/1 keep the sequential engine, N>1 partitions
	// each run's active cores into up to N domains advancing in bounded
	// windows. Unlike Parallel this changes the simulated stream —
	// results are statistical estimates gated by CompareParallelRun,
	// deterministic per (seed, Pdes, PdesWindow).
	// Configs that are incompatible (sampling, rebalancing, snapshots,
	// trace sources) quietly run sequentially. Configs that already set
	// their own Pdes keep it.
	Pdes int
	// PdesWindow overrides the parallel engine's window width in cycles
	// (0 = core.DefaultPdesWindow).
	PdesWindow sim.Cycle
	// PdesReplayWorkers shards each pdes run's barrier replay by LLC
	// bank group (core.Config.PdesReplayWorkers): 0/1 keep the serial
	// replay, N>1 applies per-group op streams in parallel. Pure
	// execution strategy — results stay bit-identical to the serial
	// replay at any value. Only applied alongside a runner-wide Pdes.
	PdesReplayWorkers int
	// PdesPipeline overlaps each window's cross-group replay merge with
	// the next window (core.Config.PdesPipeline; requires
	// PdesReplayWorkers >= 2). Like Pdes itself this changes the
	// simulated stream — deterministic and equivalence-gated.
	PdesPipeline bool
	// Replicates runs each configuration this many times with perturbed
	// seeds and reports merged metrics, per the Alameldeen-Wood
	// statistical simulation methodology the paper's §V adopts (0/1 =
	// single run). Replicate-to-replicate variability is exposed through
	// Result.CptCV.
	Replicates int
	// Obs attaches the observability sinks (live metrics, Chrome trace,
	// manifests, progress). Each executed job acquires a tracer lane so
	// the timeline shows one row per in-flight worker slot; memoized
	// cache hits produce no spans or manifests — only real work is
	// recorded. Nil disables all instrumentation.
	Obs *obs.Observer
}

// DefaultOptions returns full-scale settings matching the calibration
// runs recorded in EXPERIMENTS.md.
func DefaultOptions() Options {
	return Options{
		Scale:       1,
		WarmupRefs:  600_000,
		MeasureRefs: 1_000_000,
		Seed:        1,
	}
}

// runKey identifies a memoizable simulation.
type runKey struct {
	mixID     string
	isolated  workload.Class
	isoOnly   bool
	groupSize int
	policy    sched.Policy
}

// call is one in-flight simulation; waiters block on done and then read
// res/err (the channel close publishes the writes).
type call struct {
	done chan struct{}
	res  core.Result
	err  error
}

// Runner executes and memoizes simulations: the figure runners share
// isolation baselines heavily, and sweeps revisit configurations.
//
// Memoization is single-flight: when several goroutines ask for the same
// runKey, exactly one simulates and the rest wait for its result. All
// execution — memoized or not — funnels through one worker pool of
// Options.Parallel slots, so an entire figure suite scheduled at once
// (RunFigures) keeps a bounded number of simulations in flight no matter
// how the figures fan out internally. A Runner is safe for concurrent
// use.
type Runner struct {
	opt Options
	sem chan struct{} // worker-pool slots; held only while simulating

	mu       sync.Mutex
	cache    map[runKey]core.Result
	inflight map[runKey]*call

	sims atomic.Uint64 // simulations actually executed (not deduplicated)
}

// NewRunner returns a Runner with the given options.
func NewRunner(opt Options) *Runner {
	if opt.Scale <= 0 {
		opt.Scale = 1
	}
	if opt.WarmupRefs == 0 {
		opt.WarmupRefs = DefaultOptions().WarmupRefs
	}
	if opt.MeasureRefs == 0 {
		opt.MeasureRefs = DefaultOptions().MeasureRefs
	}
	if opt.Parallel <= 0 {
		opt.Parallel = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		opt:      opt,
		sem:      make(chan struct{}, opt.Parallel),
		cache:    make(map[runKey]core.Result),
		inflight: make(map[runKey]*call),
	}
}

// Options returns the runner's options (after defaulting).
func (r *Runner) Options() Options { return r.opt }

// Sims returns how many simulations the runner has actually executed
// (replicates counted individually). With memoization and single-flight
// deduplication this counts distinct units of real work, regardless of
// how many times figures re-requested them; tests use it to assert
// deduplication.
func (r *Runner) Sims() uint64 { return r.sims.Load() }

func (r *Runner) config(specs []workload.Spec, groupSize int, policy sched.Policy) core.Config {
	cfg := core.DefaultConfig(specs...)
	cfg.GroupSize = groupSize
	cfg.Policy = policy
	cfg.Scale = r.opt.Scale
	cfg.Seed = r.opt.Seed
	cfg.WarmupRefs = r.opt.WarmupRefs
	cfg.MeasureRefs = r.opt.MeasureRefs
	cfg.SnapshotRefs = r.opt.SnapshotRefs
	return cfg
}

// run returns the memoized result for key, computing it at most once:
// the first goroutine to miss installs an in-flight latch and simulates;
// concurrent requesters for the same key wait on the latch instead of
// duplicating the work (the seed implementation's check-then-act window
// simulated twice under a parallel sweep). Errors are returned to every
// waiter and not cached, so a later request retries.
func (r *Runner) run(key runKey, cfg core.Config) (core.Result, error) {
	r.mu.Lock()
	if res, ok := r.cache[key]; ok {
		r.mu.Unlock()
		return res, nil
	}
	if c, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		<-c.done
		return c.res, c.err
	}
	c := &call{done: make(chan struct{})}
	r.inflight[key] = c
	r.mu.Unlock()

	c.res, c.err = r.execute(cfg)

	r.mu.Lock()
	if c.err == nil {
		r.cache[key] = c.res
	}
	delete(r.inflight, key)
	r.mu.Unlock()
	close(c.done)
	return c.res, c.err
}

// execute simulates cfg (with replicates) inside a worker-pool slot. The
// slot is acquired here rather than at goroutine spawn so that nested
// fan-out (RunFigures over figures over runs) can enqueue freely: only
// goroutines actually simulating hold a slot, and single-flight waiters
// hold none, so the pool cannot deadlock on its own feedback.
func (r *Runner) execute(cfg core.Config) (core.Result, error) {
	r.sem <- struct{}{}
	defer func() { <-r.sem }()

	// A job claims a tracer lane for its whole replicate loop, so the
	// timeline renders one row per occupied worker slot and the
	// per-replicate run spans nest inside the job span.
	o := r.opt.Obs
	lane := -1
	if o != nil && o.Tr != nil {
		lane = o.Tr.AcquireLane()
		o.Tr.Begin(lane, "job "+cfg.Label())
		defer func() {
			o.Tr.End(lane)
			o.Tr.ReleaseLane(lane)
		}()
	}

	reps := r.opt.Replicates
	if reps < 1 {
		reps = 1
	}
	results := make([]core.Result, 0, reps)
	for i := 0; i < reps; i++ {
		repCfg := cfg
		repCfg.Seed = cfg.Seed + uint64(i)*0x9e37
		repCfg.Obs = o.HooksLane(lane)
		res, err := r.simulate(repCfg)
		if err != nil {
			return core.Result{}, err
		}
		results = append(results, res)
	}
	merged := mergeResults(results)
	if o != nil {
		o.CountJob()
		if o.Man != nil {
			if err := o.Man.Write(core.ManifestFor(cfg, merged, r.opt.Parallel)); err != nil {
				return merged, err
			}
		}
	}
	return merged, nil
}

// simulate builds and runs one system, counting the execution. Every
// execution path (memoized runs, replicates, raw config batches) funnels
// through here, so this is where the runner-wide engine settings apply.
func (r *Runner) simulate(cfg core.Config) (core.Result, error) {
	if !cfg.Sample.Enabled() && r.opt.Sample.Enabled() && sampleCompatible(cfg) {
		cfg.Sample = r.opt.Sample
	}
	if cfg.Pdes <= 1 && r.opt.Pdes > 1 && pdesCompatible(cfg) {
		cfg.Pdes = r.opt.Pdes
		if cfg.Pdes > cfg.Cores {
			cfg.Pdes = cfg.Cores // the engine caps domains at active cores anyway
		}
		if cfg.PdesWindow == 0 {
			cfg.PdesWindow = r.opt.PdesWindow
		}
		if cfg.PdesReplayWorkers == 0 {
			cfg.PdesReplayWorkers = r.opt.PdesReplayWorkers
			cfg.PdesPipeline = r.opt.PdesPipeline && cfg.PdesReplayWorkers > 1
		}
	}
	r.sims.Add(1)
	r.opt.Obs.CountSim()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	return sys.Run()
}

// sampleCompatible reports whether a configuration may be sampled: the
// same predicate core.Config.Validate enforces for explicitly sampled
// configs, applied here as a quiet filter so a runner-wide Sample option
// skips (rather than fails) the rows that need exact semantics.
func sampleCompatible(cfg core.Config) bool {
	return cfg.RebalanceCycles == 0 && cfg.SnapshotRefs == 0 && cfg.TotalThreads() <= cfg.Cores
}

// pdesCompatible reports whether a configuration may run under the
// split-transaction parallel engine: the same predicate
// core.Config.Validate enforces for explicitly parallel configs,
// applied here as a quiet filter so a runner-wide Pdes option skips
// (rather than fails) the rows that need a different engine or exact
// sequential semantics.
func pdesCompatible(cfg core.Config) bool {
	return !cfg.Sample.Enabled() &&
		cfg.RebalanceCycles == 0 && cfg.SnapshotRefs == 0 &&
		len(cfg.Sources) == 0
}

// runConfigs executes a batch of non-memoized configurations (ablation
// and calibration sweeps, whose configs differ in ways runKey does not
// describe) through the worker pool, preserving order.
func (r *Runner) runConfigs(cfgs []core.Config) ([]core.Result, error) {
	out := make([]core.Result, len(cfgs))
	err := r.parallelDo(len(cfgs), func(i int) error {
		r.sem <- struct{}{}
		defer func() { <-r.sem }()
		cfg := cfgs[i]
		o := r.opt.Obs
		if cfg.Obs == nil {
			// Hooks auto-acquire a tracer lane for the run's duration, so
			// sweep batches get per-worker rows too.
			cfg.Obs = o.Hooks()
		}
		res, err := r.simulate(cfg)
		out[i] = res
		if err != nil {
			return err
		}
		if o != nil {
			o.CountJob()
			if o.Man != nil {
				return o.Man.Write(core.ManifestFor(cfg, res, r.opt.Parallel))
			}
		}
		return nil
	})
	return out, err
}

// mergeResults folds replicated runs into one Result: counters are
// summed, window cycles averaged, cycles-per-transaction recomputed as
// the ratio of means, and the per-VM coefficient of variation of
// cycles-per-transaction recorded (the §V variability indicator).
func mergeResults(results []core.Result) core.Result {
	if len(results) == 1 {
		return results[0]
	}
	merged := results[0]
	merged.Replicates = len(results)
	merged.CptCV = make([]float64, len(merged.VMs))
	var cycles stats.Sample
	merged.WallSeconds = 0
	for _, res := range results {
		cycles.Add(float64(res.Cycles))
		merged.WallSeconds += res.WallSeconds
	}
	for v := range merged.VMs {
		var cpt, touched stats.Sample
		var sum vmstats.Stats
		for _, res := range results {
			cpt.Add(res.VMs[v].CyclesPerTx)
			touched.Add(float64(res.VMs[v].TouchedBlocks))
			addStats(&sum, res.VMs[v].Stats)
		}
		merged.VMs[v].Stats = sum
		merged.VMs[v].CyclesPerTx = cpt.Mean()
		merged.VMs[v].Transactions = float64(sum.Refs) / float64(results[0].Config.Workloads[v].Scaled(results[0].Config.Scale).RefsPerTx)
		merged.VMs[v].TouchedBlocks = uint64(touched.Mean())
		merged.CptCV[v] = cpt.CV()
	}
	merged.Cycles = sim.Cycle(cycles.Mean())
	return merged
}

// addStats accumulates b into a, field by field.
func addStats(a *vmstats.Stats, b vmstats.Stats) {
	a.Refs += b.Refs
	a.PrivMisses += b.PrivMisses
	a.LLCMisses += b.LLCMisses
	a.C2CClean += b.C2CClean
	a.C2CDirty += b.C2CDirty
	a.MemReads += b.MemReads
	a.Invalidations += b.Invalidations
	a.Upgrades += b.Upgrades
	a.MissLatSum += b.MissLatSum
	a.NetCycles += b.NetCycles
}

// isolationKey and mixKey are the memoization keys of the two run shapes
// the figures are built from.
func isolationKey(class workload.Class, groupSize int, policy sched.Policy) runKey {
	return runKey{isolated: class, isoOnly: true, groupSize: groupSize, policy: policy}
}

func mixKey(mix Mix, groupSize int, policy sched.Policy) runKey {
	return runKey{mixID: mix.ID, groupSize: groupSize, policy: policy}
}

// isolationJob describes one 4-thread workload alone on the chip (12
// cores idle) under the given LLC grouping and policy.
func (r *Runner) isolationJob(class workload.Class, groupSize int, policy sched.Policy) (runKey, core.Config) {
	spec := workload.Specs()[class]
	return isolationKey(class, groupSize, policy), r.config([]workload.Spec{spec}, groupSize, policy)
}

// mixJob describes a Table IV mix (four 4-thread VMs, machine at
// capacity) under the given LLC grouping and policy.
func (r *Runner) mixJob(mix Mix, groupSize int, policy sched.Policy) (runKey, core.Config) {
	specs := make([]workload.Spec, len(mix.Classes))
	all := workload.Specs()
	for i, c := range mix.Classes {
		specs[i] = all[c]
	}
	return mixKey(mix, groupSize, policy), r.config(specs, groupSize, policy)
}

// RunIsolation simulates (or recalls) an isolationJob.
func (r *Runner) RunIsolation(class workload.Class, groupSize int, policy sched.Policy) (core.Result, error) {
	return r.run(r.isolationJob(class, groupSize, policy))
}

// RunMix simulates (or recalls) a mixJob.
func (r *Runner) RunMix(mix Mix, groupSize int, policy sched.Policy) (core.Result, error) {
	return r.run(r.mixJob(mix, groupSize, policy))
}

// IsolationBaseline returns the paper's §V reference point for a
// workload: isolated, four cores, the full LLC as one shared cache.
func (r *Runner) IsolationBaseline(class workload.Class) (core.VMResult, error) {
	res, err := r.RunIsolation(class, core.DefaultCores, sched.Affinity)
	if err != nil {
		return core.VMResult{}, err
	}
	return res.VMs[0], nil
}

// parallelDo runs fn(i) for i in [0, n) concurrently and waits for all
// of them, returning the lowest-index error (deterministic regardless of
// completion order). It spawns freely: throughput is bounded by the
// runner's worker pool, which fn acquires only while actually
// simulating, so nesting parallelDo (a figure suite fanning out over
// figures that fan out over runs) cannot deadlock the pool. Parallel <= 1
// degrades to a plain serial loop.
func (r *Runner) parallelDo(n int, fn func(int) error) error {
	if r.opt.Parallel <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// groupSizeName labels an LLC grouping the way the paper's figures do.
func groupSizeName(groupSize int) string {
	switch groupSize {
	case 1:
		return "private"
	case core.DefaultCores:
		return "shared"
	case 8:
		return "2-LL$ (shared-8)"
	case 2:
		return "8-LL$ (shared-2)"
	default:
		return fmt.Sprintf("%d-LL$ (shared-%d)", core.DefaultCores/groupSize, groupSize)
	}
}
