package harness

import (
	"testing"

	"consim/internal/core"
	"consim/internal/workload"
)

// TestParallelEquivalence is the accuracy gate for the split-transaction
// parallel engine: for several seeds and worker counts, a parallel run's
// per-VM LLC miss rate and cycles-per-transaction must agree with the
// sequential run of the same configuration to within DefaultPdesBound.
// A violation is deterministic for a fixed (seed, workers, window)
// triple — it means the in-window estimator or the barrier replay
// drifted, not that the test got unlucky.
func TestParallelEquivalence(t *testing.T) {
	seeds := []uint64{1, 7, 13}
	workers := []int{2, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := equivCfg(seed) // sequential: one reference run per seed, not per worker count
		seq, err := runCfg(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, w := range workers {
			cmp, err := compareParallelTo(seq, cfg, w, 0, 0)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			ps := cmp.Sampled.Pdes
			if ps.Workers != w || ps.Windows == 0 {
				t.Fatalf("seed %d workers %d: parallel engine did not engage: %+v", seed, w, ps)
			}
			t.Logf("seed %d workers %d: domains=%d windows=%d ops=%d maxRelErr=%.3f bound=%.3f",
				seed, w, ps.Domains, ps.Windows, ps.Ops, cmp.MaxRelErr, cmp.Bound)
			for _, d := range cmp.Deltas {
				t.Logf("  vm%-2d %-8s missErr=%.3f cptErr=%.3f", d.VM, d.Name, d.Miss, d.Cpt)
			}
			if !cmp.Within() {
				t.Errorf("seed %d workers %d: per-VM deviation %.3f exceeds bound %.3f",
					seed, w, cmp.MaxRelErr, cmp.Bound)
			}
		}
	}
}

// TestRunnerPdesOption checks the runner-wide Pdes option: it defaults
// into compatible configurations, leaves explicitly configured engines
// alone, and skips incompatible rows (other engines, trace sources)
// instead of failing.
func TestRunnerPdesOption(t *testing.T) {
	r := NewRunner(Options{
		Scale:       16,
		WarmupRefs:  5_000,
		MeasureRefs: 30_000,
		Seed:        1,
		Pdes:        4,
	})

	cfg := equivCfg(1)
	cfg.WarmupRefs, cfg.MeasureRefs = 5_000, 30_000
	res, err := r.simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pdes.Workers != 4 || res.Pdes.Windows == 0 {
		t.Errorf("runner Pdes option did not reach a compatible config: %+v", res.Pdes)
	}

	// A sampled configuration already owns its engine choice; the runner
	// must skip it, not error on the pdes/sample exclusion.
	sampled := cfg
	sampled.Sample = core.SampleConfig{WindowRefs: 2_000, FFRatio: 3, MaxRefs: 10_000}
	res, err = r.simulate(sampled)
	if err != nil {
		t.Fatalf("sampled config under runner-wide pdes: %v", err)
	}
	if res.Pdes.Workers != 0 {
		t.Error("sampled config ran under pdes; it must keep the sampling engine")
	}
}

// TestRunnerPdesClampsWorkers checks that a runner-wide worker count
// larger than a config's core count is clamped rather than rejected.
func TestRunnerPdesClampsWorkers(t *testing.T) {
	r := NewRunner(Options{
		Scale:       16,
		WarmupRefs:  2_000,
		MeasureRefs: 10_000,
		Seed:        1,
		Pdes:        64,
	})
	specs := workload.Specs()
	cfg := core.DefaultConfig(specs[workload.TPCH])
	cfg.Scale = 16
	cfg.Seed = 1
	cfg.WarmupRefs, cfg.MeasureRefs = 2_000, 10_000
	res, err := r.simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pdes.Workers != cfg.Cores {
		t.Errorf("workers = %d, want clamped to %d cores", res.Pdes.Workers, cfg.Cores)
	}
}

// TestShardedReplayEquivalence gates the bank-sharded replay at harness
// level: without pipelining the sharded run must match the serial-
// replay run EXACTLY (zero deviation — sharding is execution strategy,
// not a model change); with pipelining the one-window staleness must
// stay inside DefaultPdesBound.
func TestShardedReplayEquivalence(t *testing.T) {
	seeds := []uint64{1, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		serCfg := equivCfg(seed) // serial replay: one reference run per seed, not per case
		serCfg.Pdes = 4
		ser, err := runCfg(serCfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cmp, err := compareShardedTo(ser, serCfg, 4, false, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ps := cmp.Sampled.Pdes; ps.ReplayWorkers != 4 || ps.Pipelined {
			t.Fatalf("seed %d: sharded replay did not engage: %+v", seed, ps)
		}
		if cmp.MaxRelErr != 0 {
			t.Errorf("seed %d: sharded replay deviates from serial replay: %.6f (must be exactly 0)",
				seed, cmp.MaxRelErr)
		}

		pcmp, err := compareShardedTo(ser, serCfg, 4, true, 0)
		if err != nil {
			t.Fatalf("seed %d pipelined: %v", seed, err)
		}
		if ps := pcmp.Sampled.Pdes; !ps.Pipelined {
			t.Fatalf("seed %d: pipeline did not engage: %+v", seed, ps)
		}
		t.Logf("seed %d: pipelined maxRelErr=%.4f bound=%.3f", seed, pcmp.MaxRelErr, pcmp.Bound)
		if !pcmp.Within() {
			t.Errorf("seed %d: pipelined deviation %.3f exceeds bound %.3f",
				seed, pcmp.MaxRelErr, pcmp.Bound)
		}
	}
}

// TestCompareRunsDeriveTheirReference drives the exported comparisons
// (the consim façade re-exports them; the equivalence tests above
// share one reference per seed through the unexported halves) on a short
// run: each must build its own reference from a configuration that
// already has the engine switched on.
func TestCompareRunsDeriveTheirReference(t *testing.T) {
	cfg := equivCfg(1)
	cfg.WarmupRefs, cfg.MeasureRefs = 2_000, 10_000
	cfg.Pdes, cfg.PdesReplayWorkers, cfg.PdesPipeline = 4, 4, true

	cmp, err := CompareParallelRun(cfg, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Full.Pdes.Workers != 0 || cmp.Sampled.Pdes.Workers != 2 || cmp.Bound != DefaultPdesBound || len(cmp.Deltas) == 0 {
		t.Errorf("CompareParallelRun: reference %+v, parallel %+v, bound %v, %d deltas",
			cmp.Full.Pdes, cmp.Sampled.Pdes, cmp.Bound, len(cmp.Deltas))
	}

	cmp, err = CompareShardedParallelRun(cfg, 4, 2, false, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ref, sh := cmp.Full.Pdes, cmp.Sampled.Pdes; ref.Workers != 4 || ref.ReplayWorkers != 0 || ref.Pipelined ||
		sh.ReplayWorkers != 2 || sh.Pipelined || cmp.Bound != 0.5 || cmp.MaxRelErr != 0 {
		t.Errorf("CompareShardedParallelRun: reference %+v, sharded %+v, bound %v, maxRelErr %v",
			ref, sh, cmp.Bound, cmp.MaxRelErr)
	}
}

// TestRunnerPdesReplayOption checks the runner-wide replay knobs: they
// ride along only when the runner's Pdes option engages, and a config
// that owns its replay setting keeps it.
func TestRunnerPdesReplayOption(t *testing.T) {
	r := NewRunner(Options{
		Scale:             16,
		WarmupRefs:        5_000,
		MeasureRefs:       30_000,
		Seed:              1,
		Pdes:              4,
		PdesReplayWorkers: 4,
		PdesPipeline:      true,
	})

	cfg := equivCfg(1)
	cfg.WarmupRefs, cfg.MeasureRefs = 5_000, 30_000
	res, err := r.simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pdes.ReplayWorkers != 4 || !res.Pdes.Pipelined {
		t.Errorf("runner replay options did not reach the config: %+v", res.Pdes)
	}

	// A config that pins its own replay worker count keeps it, and the
	// pipeline flag does not ride along against its choice.
	own := cfg
	own.Pdes = 4
	own.PdesReplayWorkers = 2
	res, err = r.simulate(own)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pdes.ReplayWorkers != 2 || res.Pdes.Pipelined {
		t.Errorf("explicit replay config overridden: %+v", res.Pdes)
	}

	// Without a runner-wide Pdes the replay knobs never apply.
	r2 := NewRunner(Options{
		Scale:             16,
		WarmupRefs:        5_000,
		MeasureRefs:       30_000,
		Seed:              1,
		PdesReplayWorkers: 4,
	})
	res, err = r2.simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pdes.ReplayWorkers != 0 {
		t.Errorf("replay workers applied without pdes: %+v", res.Pdes)
	}
}
