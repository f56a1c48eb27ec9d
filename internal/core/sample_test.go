package core

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"consim/internal/obs"
	"consim/internal/sched"
	"consim/internal/sim"
	"consim/internal/workload"
)

// sampledCfg is the standard small sampled configuration the tests run:
// the 4-VM consolidated machine at test scale with a window geometry
// small enough to exercise several window/fast-forward alternations.
func sampledCfg() Config {
	cfg := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
	cfg.WarmupRefs = 10_000
	cfg.MeasureRefs = 100_000
	cfg.Sample = SampleConfig{WindowRefs: 2_000, FFRatio: 3, CITarget: 0.05, MinWindows: 3, MaxRefs: 12_000}
	return cfg
}

// resultDigest serializes everything simulation-visible about a result
// (excluding host-side provenance like wall time).
func resultDigest(t *testing.T, res Result) string {
	t.Helper()
	d := struct {
		Cycles                                              sim.Cycle
		VMs                                                 []VMResult
		Sample                                              SampleStats
		NetAvgWait, NetAvgHops, MemAvgWait, DirCacheHitRate float64
		Switches                                            uint64
	}{res.Cycles, res.VMs, res.Sample, res.NetAvgWait, res.NetAvgHops,
		res.MemAvgWait, res.DirCacheHitRate, res.Switches}
	buf, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestSampledDeterministic pins the sampling engine's determinism
// contract: for a fixed (seed, window-config) pair the sampled result —
// window count, skip totals, achieved CI and every metric — is the same
// on every run, exactly like detailed runs, and sampling really engaged
// (several windows, references skipped between them).
func TestSampledDeterministic(t *testing.T) {
	var want string
	for run := 0; run < 2; run++ {
		res := mustRun(t, sampledCfg())
		if res.Sample.Windows < 3 || res.Sample.SkippedRefs == 0 {
			t.Fatalf("run %d: sampling did not engage: %+v", run, res.Sample)
		}
		got := resultDigest(t, res)
		if run == 0 {
			want = got
			t.Logf("sample: %+v", res.Sample)
		} else if got != want {
			t.Errorf("second sampled run diverged from the first:\nfirst  %s\nsecond %s", want, got)
		}
	}
}

// TestSampledRunRepeatable pins run-to-run determinism: the same sampled
// configuration produces byte-identical results on every execution.
func TestSampledRunRepeatable(t *testing.T) {
	a := resultDigest(t, mustRun(t, sampledCfg()))
	b := resultDigest(t, mustRun(t, sampledCfg()))
	if a != b {
		t.Fatal("sampled run is not repeatable for a fixed seed and window config")
	}
}

// TestSampleConfigDefaults checks the knob defaulting and the zero
// value's pass-through (a disabled config must stay exactly zero so
// detailed runs are bit-identical to builds without the engine).
func TestSampleConfigDefaults(t *testing.T) {
	if got := (SampleConfig{}).withDefaults(1000); got != (SampleConfig{}) {
		t.Errorf("disabled config gained defaults: %+v", got)
	}
	got := SampleConfig{WindowRefs: 500}.withDefaults(10_000)
	want := SampleConfig{WindowRefs: 500, FFRatio: 4, CITarget: 0.05, MinWindows: 4, MaxRefs: 10_000}
	if got != want {
		t.Errorf("defaults = %+v, want %+v", got, want)
	}
	if got := (SampleConfig{WindowRefs: 500, MaxRefs: 99_999}).withDefaults(10_000); got.MaxRefs != 10_000 {
		t.Errorf("MaxRefs not clamped to measure budget: %d", got.MaxRefs)
	}
}

// TestSampleValidation checks that configurations the engine cannot run
// soundly are rejected up front.
func TestSampleValidation(t *testing.T) {
	base := sampledCfg()
	for name, mutate := range map[string]func(*Config){
		"overcommit": func(c *Config) {
			specs := workload.Specs()
			for i := 0; i < 5; i++ {
				c.Workloads = append(c.Workloads, specs[workload.TPCH])
			}
		},
	} {
		cfg := base
		cfg.Workloads = append([]workload.Spec(nil), base.Workloads...)
		mutate(&cfg)
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("%s: sampled config accepted, want validation error", name)
		}
	}

	// A CI target as the flags hand it over: a NaN one never converges
	// and an infinite one always does, so neither is a convergence goal.
	// NewSystem must refuse them too, before its defaults replace them.
	for _, ci := range []float64{-0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := base
		cfg.Sample.CITarget = ci
		if err := cfg.Validate(); err == nil {
			t.Errorf("CI target %g accepted, want validation error", ci)
		}
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("NewSystem: CI target %g accepted, want validation error", ci)
		}
	}
	ff := base
	ff.Sample.FFRatio = -1
	if err := ff.Validate(); err == nil {
		t.Error("fast-forward ratio -1 accepted, want validation error")
	}
	if _, err := NewSystem(ff); err == nil {
		t.Error("NewSystem: fast-forward ratio -1 accepted, want validation error")
	}
}

// timingSnapshot captures every piece of state the fast-forward phase
// must not move: simulated time, the event queue, contention state
// (banks, directories, memory controllers, mesh), hypervisor activity,
// per-core reference counters and the per-VM measurement counters.
// Directory-cache hit/miss totals are deliberately absent — fast-forward
// keeps the directory caches functionally warm, so those whole-run
// cumulative counters advance by design (exactly as they do in warm-up).
type timingSnapshot struct {
	Now        sim.Cycle
	QLen       int
	BankBusy   []sim.Cycle
	DirBusy    []sim.Cycle
	MemReads   uint64
	MemWBs     uint64
	MemWait    sim.Cycle
	NetHops    float64
	Switches   uint64
	GlobalRefs uint64
	CoreRefs   []uint64
	VMStats    []string
}

func snapshotTiming(t *testing.T, s *System) timingSnapshot {
	t.Helper()
	snap := timingSnapshot{
		Now:        s.now,
		QLen:       s.q.Len(),
		BankBusy:   append([]sim.Cycle(nil), s.bankBusy...),
		DirBusy:    append([]sim.Cycle(nil), s.dirBusy...),
		MemReads:   s.mem.Reads,
		MemWBs:     s.mem.Writebacks,
		MemWait:    s.mem.WaitSum,
		NetHops:    s.net.AvgHops(),
		Switches:   s.Switches,
		GlobalRefs: s.globalRefs,
	}
	for c := range s.cores {
		snap.CoreRefs = append(snap.CoreRefs, s.cores[c].refs)
	}
	for _, m := range s.vms {
		buf, err := json.Marshal(m.Stats)
		if err != nil {
			t.Fatal(err)
		}
		snap.VMStats = append(snap.VMStats, string(buf))
	}
	return snap
}

// newSeededSystem builds a system and seeds the event queue the way
// Run() does, stopping short of the warm-up.
func newSeededSystem(t testing.TB, cfg Config) *System {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := range sys.cores {
		if sys.cores[c].active {
			sys.q.Push(0, c)
		}
	}
	sys.setupTS()
	return sys
}

// newWarmSystem is newSeededSystem plus a warm-up done entirely in the
// detailed engine — a detailed run's warm-up, and the state the
// fast-forward tests start from. A sampled Run warms up through warmUp.
func newWarmSystem(t testing.TB, cfg Config) *System {
	t.Helper()
	sys := newSeededSystem(t, cfg)
	sys.runUntil(cfg.WarmupRefs)
	return sys
}

// TestFastForwardNoTimingLeak drives fast-forward directly between two
// timing snapshots and requires byte-for-byte equality: functional
// warming may touch caches and directories, but nothing visible to the
// timing model — simulated time, queued events, contention occupancy,
// memory-controller and mesh counters, scheduler state, per-core
// reference budgets, measurement counters — may move.
func TestFastForwardNoTimingLeak(t *testing.T) {
	sys := newWarmSystem(t, sampledCfg())

	before := snapshotTiming(t, sys)
	sys.fastForward(10_000)
	after := snapshotTiming(t, sys)
	after.Now = before.Now // compared explicitly below

	if sys.now != before.Now {
		t.Errorf("fast-forward advanced simulated time %d -> %d", before.Now, sys.now)
	}
	bb, _ := json.Marshal(before)
	ab, _ := json.Marshal(after)
	if string(bb) != string(ab) {
		t.Errorf("fast-forward leaked into timing state:\nbefore %s\nafter  %s", bb, ab)
	}
	if sys.sample.SkippedRefs != 10_000 {
		t.Errorf("SkippedRefs = %d, want 10000", sys.sample.SkippedRefs)
	}
}

// TestSampledSteadyStateAllocBudget holds both sampled phases to the
// same steady-state allocation budget as the detailed engine: once warm,
// a window + fast-forward round trip must not allocate per reference.
func TestSampledSteadyStateAllocBudget(t *testing.T) {
	cfg := sampledCfg()
	cfg.Obs = obs.NewObserver(nil, nil, nil).Hooks()
	sys := newWarmSystem(t, cfg)

	// One untimed round trip lets lazily-grown structures (directory
	// tables, event-queue capacity) reach their working size.
	sys.fastForward(6_000)
	sys.runUntil(cfg.WarmupRefs + 2_000)

	const ffRefs, winRefs = 20_000, 4_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys.fastForward(ffRefs)
	sys.runUntil(cfg.WarmupRefs + 2_000 + winRefs)
	runtime.ReadMemStats(&after)

	measuredRefs := uint64((ffRefs + winRefs) * len(sys.cores))
	allocs := after.Mallocs - before.Mallocs
	perRef := float64(allocs) / float64(measuredRefs)
	t.Logf("sampled steady state: %d allocs over %d refs (%.6f allocs/ref, %d bytes)",
		allocs, measuredRefs, perRef, after.TotalAlloc-before.TotalAlloc)
	if perRef > 0.001 {
		t.Fatalf("sampled path allocates: %.6f allocs/ref (budget 0.001)", perRef)
	}
}

// TestWarmingAllocBudgetWithTelemetry holds the specialized warming
// walk to the steady-state budget with the full observability stack
// attached — live metrics shard AND per-window time-series recorder —
// since those are exactly what a production `-sample -timeseries` run
// carries. The recorder's hot path writes preallocated columns only, so
// fast-forward must stay allocation-free per reference even while every
// window commits a telemetry row. That covers the warm-up's fast-forward
// as much as the ones between windows.
func TestWarmingAllocBudgetWithTelemetry(t *testing.T) {
	ob := obs.NewObserver(nil, nil, nil)
	ob.Series = true

	cfg := sampledCfg()
	cfg.WarmupRefs = 40_000 // a 2k pilot, then 38k per core functional
	cfg.Obs = ob.Hooks()

	// The warm-up first, from cold: the pilot and the fast-forward build
	// their one-time structures (warming contexts, rate and budget scratch,
	// the directory's doublings) — a few dozen allocations against the
	// 600k references they serve.
	sys := newSeededSystem(t, cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys.warmUp(0)
	runtime.ReadMemStats(&after)
	pilot := cfg.Sample.WindowRefs
	if got := sys.sample.WarmupFunctionalRefs; got < cfg.WarmupRefs-pilot {
		t.Fatalf("warm-up fast-forwarded %d refs/core, want >= %d", got, cfg.WarmupRefs-pilot)
	}
	warmRefs := cfg.WarmupRefs * uint64(sys.activeCores)
	perRef := float64(after.Mallocs-before.Mallocs) / float64(warmRefs)
	t.Logf("warm-up with telemetry: %d allocs over %d refs (%.6f allocs/ref)", after.Mallocs-before.Mallocs, warmRefs, perRef)
	if perRef > 0.001 {
		t.Fatalf("warm-up allocates with telemetry attached: %.6f allocs/ref (budget 0.001)", perRef)
	}

	// One untimed round trip grows lazy structures (event-queue
	// capacity) to working size.
	sys.fastForward(6_000)
	sys.runUntil(pilot + 2_000)

	const ffRefs, winRefs = 40_000, 4_000
	runtime.ReadMemStats(&before)
	sys.fastForward(ffRefs)
	sys.runUntil(pilot + 2_000 + winRefs)
	runtime.ReadMemStats(&after)

	measuredRefs := uint64((ffRefs + winRefs) * len(sys.cores))
	allocs := after.Mallocs - before.Mallocs
	perRef = float64(allocs) / float64(measuredRefs)
	t.Logf("warming with telemetry: %d allocs over %d refs (%.6f allocs/ref, %d bytes)",
		allocs, measuredRefs, perRef, after.TotalAlloc-before.TotalAlloc)
	if perRef > 0.001 {
		t.Fatalf("warming path allocates with telemetry attached: %.6f allocs/ref (budget 0.001)", perRef)
	}
}

// FuzzFastForwardBoundary fuzzes the window/fast-forward boundary: for
// arbitrary window geometries the engine must terminate with a coherent
// stop reason, split the warm-up into its pilot window and functional
// rest, never leak fast-forwarded references into measurement counters,
// and remain deterministic (two runs of the same fuzzed
// geometry agree byte for byte).
func FuzzFastForwardBoundary(f *testing.F) {
	f.Add(uint16(2000), uint8(3), uint16(8000))
	f.Add(uint16(1), uint8(1), uint16(1))
	f.Add(uint16(5000), uint8(0), uint16(60000))
	f.Add(uint16(100), uint8(9), uint16(300))
	f.Add(uint16(3000), uint8(2), uint16(9000)) // warm-up == window: no functional warm-up
	f.Add(uint16(2999), uint8(2), uint16(9000)) // one functional reference per core
	f.Fuzz(func(t *testing.T, window uint16, ratio uint8, maxRefs uint16) {
		if window == 0 {
			t.Skip()
		}
		cfg := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
		cfg.WarmupRefs = 3_000
		cfg.MeasureRefs = 30_000
		cfg.Sample = SampleConfig{
			WindowRefs: uint64(window),
			// Bound the ratio so one fuzz iteration stays sub-second; the
			// boundary logic is identical at every ratio.
			FFRatio:    int(ratio%10) + 1,
			CITarget:   0.02, // strict: most fuzz runs stop on budget
			MinWindows: 3,
			MaxRefs:    uint64(maxRefs),
		}
		var sys *System
		run := func() Result {
			var err error
			sys, err = NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		res := run()
		sa := res.Sample
		if sa.Windows < 1 {
			t.Fatalf("no windows ran: %+v", sa)
		}
		if sa.StopReason != StopConverged && sa.StopReason != StopBudget {
			t.Fatalf("bad stop reason: %+v", sa)
		}
		if sa.DetailedRefs != uint64(sa.Windows)*cfg.Sample.WindowRefs {
			t.Fatalf("detailed refs %d != windows %d x window %d", sa.DetailedRefs, sa.Windows, cfg.Sample.WindowRefs)
		}
		// Per-core measurement counters must cover exactly warm-up plus the
		// detailed windows — fast-forwarded references never count.
		effMax := cfg.Sample.withDefaults(cfg.MeasureRefs).MaxRefs
		if sa.StopReason == StopBudget && sa.DetailedRefs < effMax {
			t.Fatalf("budget stop below budget: %+v (max %d)", sa, effMax)
		}
		// The warm-up is one detailed pilot window and the rest of
		// WarmupRefs functional, and together they cover WarmupRefs.
		pilot := min(cfg.Sample.WindowRefs, cfg.WarmupRefs)
		if sa.WarmupDetailedRefs != pilot {
			t.Fatalf("warm-up pilot of %d detailed refs, want %d (%+v)", sa.WarmupDetailedRefs, pilot, sa)
		}
		if sa.WarmupDetailedRefs+sa.WarmupFunctionalRefs < cfg.WarmupRefs {
			t.Fatalf("warm-up covers %d+%d refs, want >= %d", sa.WarmupDetailedRefs, sa.WarmupFunctionalRefs, cfg.WarmupRefs)
		}
		if (sa.WarmupFunctionalRefs == 0) != (cfg.WarmupRefs <= cfg.Sample.WindowRefs) {
			t.Fatalf("functional warm-up of %d refs with warm-up %d and window %d", sa.WarmupFunctionalRefs, cfg.WarmupRefs, cfg.Sample.WindowRefs)
		}
		// Every active core must have issued at least the pilot plus the
		// detailed windows through the timing loop, and the slowest exactly
		// that — fast-forwarded references never advance the per-core
		// budget counters, so a shortfall means a window leaked into the
		// functional plane and an excess on every core means functional
		// warm-up leaked into the detailed one.
		slowest := ^uint64(0)
		for c := range sys.cores {
			if !sys.cores[c].active {
				continue
			}
			slowest = min(slowest, sys.cores[c].refs)
		}
		if want := pilot + sa.DetailedRefs; slowest != want {
			t.Fatalf("slowest core issued %d detailed refs, want %d (%+v)", slowest, want, sa)
		}
		digest1 := resultDigestF(t, res)
		digest2 := resultDigestF(t, run())
		if digest1 != digest2 {
			t.Fatal("fuzzed sampled run is not deterministic")
		}
	})
}

// resultDigestF is resultDigest for fuzz targets (testing.TB).
func resultDigestF(t testing.TB, res Result) string {
	t.Helper()
	buf, err := json.Marshal(struct {
		Cycles sim.Cycle
		VMs    []VMResult
		Sample SampleStats
	}{res.Cycles, res.VMs, res.Sample})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}
