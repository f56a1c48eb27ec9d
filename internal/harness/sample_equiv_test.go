package harness

import (
	"testing"

	"consim/internal/core"
	"consim/internal/sched"
	"consim/internal/workload"
)

// equivCfg is the consolidated 4-VM machine at test scale used by the
// statistical-equivalence checks.
func equivCfg(seed uint64) core.Config {
	specs := workload.Specs()
	cfg := core.DefaultConfig(specs[workload.TPCW], specs[workload.SPECjbb],
		specs[workload.TPCH], specs[workload.SPECweb])
	cfg.Scale = 16
	cfg.GroupSize = 4
	cfg.Policy = sched.Affinity
	cfg.Seed = seed
	cfg.WarmupRefs = 20_000
	cfg.MeasureRefs = 200_000
	return cfg
}

// equivSampleConfig is the sampling geometry the equivalence suite runs:
// enough windows for a stable variance estimate, a quarter of the
// detailed budget measured.
func equivSampleConfig() core.SampleConfig {
	return core.SampleConfig{
		WindowRefs: 5_000,
		FFRatio:    3,
		CITarget:   0.10,
		MinWindows: 4,
		MaxRefs:    50_000,
	}
}

// equivIsoCfg is one 4-thread TPC-W VM alone on the chip under the given
// LLC grouping: the isolation figures' set-up at equivCfg's scale. TPC-W
// because it keeps a steady LLC miss rate (5%) under a fully shared LLC;
// TPC-H's there is a cold tail that decays to zero, a ratio of two
// near-zero counts. The warm-up is 60k references per core: at 20k the
// 16 MB shared LLC is still filling, and the detailed run then averages
// a decay the sampled run's early windows do not see.
func equivIsoCfg(seed uint64, groupSize int) core.Config {
	cfg := equivCfg(seed)
	cfg.Workloads = cfg.Workloads[:1]
	cfg.GroupSize = groupSize
	cfg.WarmupRefs = 60_000
	return cfg
}

// TestSampledEquivalence is the statistical-accuracy gate: for several
// seeds, on the consolidated mix and on an isolated VM under a private
// and a fully shared LLC, a sampled run's per-VM LLC miss rate and
// cycles-per-transaction must agree with the fully detailed run of the
// same configuration to within the CI-derived bound the sampling engine
// itself declares (RunComparison.Bound = 2 x the worse of the CI target
// and the achieved CI). A violation is deterministic for a fixed seed —
// it means the estimator or its confidence accounting broke, not that
// the test got unlucky.
func TestSampledEquivalence(t *testing.T) {
	seeds := []uint64{1, 7, 13}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, tc := range []struct {
			name string
			cfg  core.Config
		}{
			{"mix", equivCfg(seed)},
			{"iso-private", equivIsoCfg(seed, 1)},
			{"iso-shared", equivIsoCfg(seed, core.DefaultCores)},
		} {
			cmp, err := CompareSampledRun(tc.cfg, equivSampleConfig())
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			sa := cmp.Sampled.Sample
			if sa.Windows < 4 || sa.SkippedRefs == 0 {
				t.Fatalf("%s seed %d: sampling did not engage: %+v", tc.name, seed, sa)
			}
			t.Logf("%s seed %d: windows=%d detailed=%d skipped=%d achievedCI=%.3f (%s) maxRelErr=%.3f bound=%.3f",
				tc.name, seed, sa.Windows, sa.DetailedRefs, sa.SkippedRefs, sa.AchievedRelCI,
				sa.StopReason, cmp.MaxRelErr, cmp.Bound)
			for _, d := range cmp.Deltas {
				t.Logf("  vm%-2d %-8s missErr=%.3f cptErr=%.3f", d.VM, d.Name, d.Miss, d.Cpt)
			}
			if !cmp.Within() {
				t.Errorf("%s seed %d: per-VM deviation %.3f exceeds declared bound %.3f",
					tc.name, seed, cmp.MaxRelErr, cmp.Bound)
			}
		}
	}
}

// TestRunnerSampleOption checks the runner-wide Sample option: it
// defaults into compatible configurations, leaves explicitly sampled
// configs alone, and skips sampling-incompatible rows instead of
// failing.
func TestRunnerSampleOption(t *testing.T) {
	r := NewRunner(Options{
		Scale:       16,
		WarmupRefs:  5_000,
		MeasureRefs: 50_000,
		Seed:        1,
		Sample: core.SampleConfig{
			WindowRefs: 2_000, FFRatio: 3, CITarget: 0.10, MinWindows: 3, MaxRefs: 10_000,
		},
	})

	cfg := equivCfg(1)
	cfg.WarmupRefs, cfg.MeasureRefs = 5_000, 50_000
	res, err := r.simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample.Windows == 0 {
		t.Error("runner Sample option did not reach a compatible config")
	}

	// An over-committed configuration (more threads than cores) cannot be
	// sampled; the runner must fall back to a detailed run, not error.
	over := cfg
	specs := workload.Specs()
	for i := 0; i < 2; i++ {
		over.Workloads = append(over.Workloads, specs[workload.TPCH])
	}
	over.TimesliceCycles = 200_000
	res, err = r.simulate(over)
	if err != nil {
		t.Fatalf("over-committed config under runner-wide sampling: %v", err)
	}
	if res.Sample.Windows != 0 {
		t.Error("over-committed config was sampled; it must stay detailed")
	}
}

// TestRunnerSampleSkipsOvercommit checks that an over-committed config
// (8 threads per VM, time-sliced cores), which core.Config.Validate
// refuses to sample, runs detailed under a runner-wide Sample and still
// rotates its threads.
func TestRunnerSampleSkipsOvercommit(t *testing.T) {
	r := NewRunner(Options{
		Scale:       16,
		WarmupRefs:  2_000,
		MeasureRefs: 10_000,
		Seed:        1,
		Sample:      core.SampleConfig{WindowRefs: 1_000},
	})
	cfg := equivCfg(1)
	cfg.WarmupRefs, cfg.MeasureRefs = 2_000, 10_000
	cfg.ThreadsPerVM, cfg.TimesliceCycles = 8, 5_000
	res, err := r.simulate(cfg)
	if err != nil {
		t.Fatalf("over-committed config under runner-wide sampling: %v", err)
	}
	if res.Sample.Windows != 0 {
		t.Error("over-committed config was sampled; it must stay detailed")
	}
	if res.Switches == 0 {
		t.Error("over-committed config recorded no timeslice rotation")
	}
}
