package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"consim/internal/core"
	"consim/internal/obs"
	"consim/internal/sched"
	"consim/internal/workload"
)

// Options control the simulation scale for a whole experiment suite.
type Options struct {
	// Scale divides footprints and cache capacities (1 = paper scale).
	Scale int
	// WarmupRefs / MeasureRefs are per-core reference budgets.
	WarmupRefs  uint64
	MeasureRefs uint64
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
	// incompatible with sampling (over-committed scheduling) quietly run
	// fully detailed, so a sampled sweep can still include the ablation
	// rows that need exact semantics. Configs that already set their own
	// Sample keep it.
	Sample core.SampleConfig
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

// call is one in-flight simulation; waiters block on done and then read
// res/err (the channel close publishes the writes).
type call struct {
	done chan struct{}
	res  core.Result
	err  error
}

// configKey is a configuration's memo key: the SHA-256 of its
// encoding/json form, which covers every field but Obs (json:"-").
type configKey [sha256.Size]byte

// keyBufs recycles the encoding buffers configKeyOf digests.
var keyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// configKeyOf returns cfg's memo key, or false for a configuration the
// runner must not memoize: one that replays a recorded stream (trace
// replay is stateful, so its result is not a function of the config) or
// one that does not encode.
func configKeyOf(cfg *core.Config) (configKey, bool) {
	for _, src := range cfg.Sources {
		if src != nil {
			return configKey{}, false
		}
	}
	buf := keyBufs.Get().(*bytes.Buffer)
	defer keyBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(cfg); err != nil {
		return configKey{}, false
	}
	return sha256.Sum256(buf.Bytes()), true
}

// Runner executes and memoizes simulations: the figure runners share
// isolation baselines heavily, and sweeps revisit configurations.
//
// Every configuration runs one way, through RunConfigs: memoized on its
// whole core.Config, single-flight (when several goroutines ask for the
// same configuration, exactly one simulates and the rest wait for its
// result), in one worker pool of Options.Parallel slots, so an entire
// figure suite scheduled at once (RunFigures) keeps a bounded number of
// simulations in flight no matter how the figures fan out internally. A
// Runner is safe for concurrent use.
type Runner struct {
	opt Options
	sem chan struct{} // worker-pool slots; held only while simulating

	mu       sync.Mutex
	cache    map[configKey]core.Result
	inflight map[configKey]*call

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
		cache:    make(map[configKey]core.Result),
		inflight: make(map[configKey]*call),
	}
}

// Options returns the runner's options (after defaulting).
func (r *Runner) Options() Options { return r.opt }

// Sims returns how many simulations the runner has actually executed.
// With memoization and single-flight deduplication this counts distinct
// configurations (plus each trace-replay run, which is never memoized),
// regardless of how many times figures or batches re-requested them;
// tests use it to assert deduplication.
func (r *Runner) Sims() uint64 { return r.sims.Load() }

func (r *Runner) config(specs []workload.Spec, groupSize int, policy sched.Policy) core.Config {
	cfg := core.DefaultConfig(specs...)
	cfg.GroupSize = groupSize
	cfg.Policy = policy
	cfg.Scale = r.opt.Scale
	cfg.Seed = r.opt.Seed
	cfg.WarmupRefs = r.opt.WarmupRefs
	cfg.MeasureRefs = r.opt.MeasureRefs
	return cfg
}

// RunConfigs runs a batch of configurations through the worker pool and
// returns their results in input order, with the lowest-index error.
// Each configuration simulates at most once per runner: a repeat, in
// this batch or any other, is served from the memo.
func (r *Runner) RunConfigs(cfgs []core.Config) ([]core.Result, error) {
	// The keys are computed before the fan-out: encoding a config needs
	// a deep stack, and encoding on every spawned goroutine raised the
	// runtime's adaptive starting stack size for all of them (a figure
	// sweep's stack memory doubled).
	keys := make([]configKey, len(cfgs))
	memo := make([]bool, len(cfgs))
	for i := range cfgs {
		keys[i], memo[i] = configKeyOf(&cfgs[i])
	}
	out := make([]core.Result, len(cfgs))
	err := r.parallelDo(len(cfgs), func(i int) (err error) {
		out[i], err = r.run(&cfgs[i], keys[i], memo[i])
		return err
	})
	return out, err
}

// run returns the memoized result for cfg under key, computing it at
// most once: the first goroutine to miss installs an in-flight latch and
// simulates; concurrent requesters for the same configuration wait on
// the latch instead of duplicating the work. Errors are returned to
// every waiter and not cached, so a later request retries. With memo
// false (configKeyOf refused cfg) it simulates unmemoized.
func (r *Runner) run(cfg *core.Config, key configKey, memo bool) (core.Result, error) {
	if !memo {
		return r.execute(*cfg)
	}
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

	c.res, c.err = r.execute(*cfg)

	r.mu.Lock()
	if c.err == nil {
		r.cache[key] = c.res
	}
	delete(r.inflight, key)
	r.mu.Unlock()
	close(c.done)
	return c.res, c.err
}

// execute simulates cfg inside a worker-pool slot, counting it as a job
// and appending its manifest. The slot is acquired here rather than at
// goroutine spawn so that nested fan-out (RunFigures over figures over
// runs) can enqueue freely: only goroutines actually simulating hold a
// slot, and single-flight waiters hold none, so the pool cannot deadlock
// on its own feedback.
func (r *Runner) execute(cfg core.Config) (core.Result, error) {
	r.sem <- struct{}{}
	defer func() { <-r.sem }()

	// A job claims a tracer lane, so the timeline renders one row per
	// occupied worker slot and the run's spans nest inside the job span.
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
	if cfg.Obs == nil {
		cfg.Obs = o.HooksLane(lane)
	}
	res, err := r.simulate(cfg)
	if err != nil {
		return res, err
	}
	if o != nil {
		o.CountJob()
		if o.Man != nil {
			if err := o.Man.Write(core.ManifestFor(cfg, res, r.opt.Parallel)); err != nil {
				return res, err
			}
		}
	}
	// The time series lives in the manifest record; the memo need not
	// hold it for the rest of the sweep.
	res.Series = nil
	return res, nil
}

// simulate builds and runs one system, counting the execution. Every
// execution funnels through here, so this is where the runner-wide
// sampling setting applies: to a copy of cfg, kept only if
// core.Config.Validate accepts it, so the rows that need exact semantics
// or another engine quietly run as configured instead of failing.
// Configs that chose their own engine keep it.
func (r *Runner) simulate(cfg core.Config) (core.Result, error) {
	if !cfg.Sample.Enabled() && r.opt.Sample.Enabled() {
		c := cfg
		c.Sample = r.opt.Sample
		cfg = validOr(c, cfg)
	}
	r.sims.Add(1)
	r.opt.Obs.CountSim()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	return sys.Run()
}

// validOr returns cfg if it validates, else fallback.
func validOr(cfg, fallback core.Config) core.Config {
	if cfg.Validate() != nil {
		return fallback
	}
	return cfg
}

// isolationConfig is one 4-thread workload alone on the chip (12 cores
// idle) under the given LLC grouping and policy.
func (r *Runner) isolationConfig(class workload.Class, groupSize int, policy sched.Policy) core.Config {
	return r.config([]workload.Spec{workload.Specs()[class]}, groupSize, policy)
}

// mixConfig is a Table IV mix (four 4-thread VMs, machine at capacity)
// under the given LLC grouping and policy.
func (r *Runner) mixConfig(mix Mix, groupSize int, policy sched.Policy) core.Config {
	specs := make([]workload.Spec, len(mix.Classes))
	all := workload.Specs()
	for i, c := range mix.Classes {
		specs[i] = all[c]
	}
	return r.config(specs, groupSize, policy)
}

// runOne runs a single configuration through RunConfigs.
func (r *Runner) runOne(cfg core.Config) (core.Result, error) {
	res, err := r.RunConfigs([]core.Config{cfg})
	return res[0], err
}

// RunIsolation simulates (or recalls) an isolation run.
func (r *Runner) RunIsolation(class workload.Class, groupSize int, policy sched.Policy) (core.Result, error) {
	return r.runOne(r.isolationConfig(class, groupSize, policy))
}

// RunMix simulates (or recalls) a Table IV mix run.
func (r *Runner) RunMix(mix Mix, groupSize int, policy sched.Policy) (core.Result, error) {
	return r.runOne(r.mixConfig(mix, groupSize, policy))
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
