package core

import (
	"encoding/json"
	"math"
	"testing"

	"consim/internal/sched"
	"consim/internal/workload"
)

// pdesDigest is the comparison projection for parallel-vs-parallel
// determinism checks: the full golden digest (counters, latencies,
// snapshot) must be byte-identical across repeated runs at the same
// (seed, Pdes).
func pdesDigest(t *testing.T, res Result) string {
	t.Helper()
	d := digestOf(res)
	buf, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// pdesRelErr returns |got-want|/|want| with the zero-baseline convention
// used by the harness equivalence gate.
func pdesRelErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(got-want) / math.Abs(want)
}

// pdesOracle runs cfg on the sequential engine: the reference a parallel
// run of the same configuration is held against.
func pdesOracle(t *testing.T, cfg Config) Result {
	t.Helper()
	cfg.Pdes = 1
	return mustRun(t, cfg)
}

// comparePdes runs cfg sequentially and at the given worker count and
// returns their pdesWorstErr.
func comparePdes(t *testing.T, cfg Config, workers int) float64 {
	t.Helper()
	return pdesWorstErr(t, pdesOracle(t, cfg), cfg, workers)
}

// pdesWorstErr runs cfg at the given worker count and returns the worst
// per-VM relative error against want, the oracle's result, over LLC miss
// rate and cycles-per-transaction — the same two metrics the harness
// equivalence gate bounds.
func pdesWorstErr(t *testing.T, want Result, cfg Config, workers int) float64 {
	t.Helper()
	cfg.Pdes = workers
	got := mustRun(t, cfg)

	if len(got.VMs) != len(want.VMs) {
		t.Fatalf("VM count mismatch: %d vs %d", len(got.VMs), len(want.VMs))
	}
	worst := 0.0
	for i := range want.VMs {
		if want.VMs[i].Stats.Refs == 0 {
			continue
		}
		if e := pdesRelErr(got.VMs[i].MissRate(), want.VMs[i].MissRate()); e > worst {
			worst = e
		}
		if e := pdesRelErr(got.VMs[i].CyclesPerTx, want.VMs[i].CyclesPerTx); e > worst {
			worst = e
		}
	}
	return worst
}

// TestPdesValidation rejects configurations the engine cannot run
// soundly and accepts the ones it can.
func TestPdesValidation(t *testing.T) {
	base := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb)

	bad := []func(*Config){
		func(c *Config) { c.Pdes = -1 },
		func(c *Config) { c.Pdes = c.Cores + 1 },
		func(c *Config) { c.Pdes = 4; c.Sample.WindowRefs = 1000 },
	}
	for i, mut := range bad {
		cfg := base
		mut(&cfg)
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}

	good := base
	good.Pdes = 4
	if _, err := NewSystem(good); err != nil {
		t.Errorf("valid pdes config rejected: %v", err)
	}
	// Over-commitment is legal: timeslice rotation is domain-local.
	over := base
	over.Pdes = 4
	over.ThreadsPerVM = 8
	over.TimesliceCycles = 5_000
	if _, err := NewSystem(over); err != nil {
		t.Errorf("over-committed pdes config rejected: %v", err)
	}
}

// TestPdesReplayValidation pins how the deprecated replay fields are
// validated: the replay-worker count is ignored, with or without the
// parallel engine, and pipelining is refused.
func TestPdesReplayValidation(t *testing.T) {
	base := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb)

	for _, rw := range []struct{ pdes, replay int }{{2, 2}, {0, 2}, {4, 4}} {
		cfg := base
		cfg.Pdes, cfg.PdesReplayWorkers = rw.pdes, rw.replay
		if _, err := NewSystem(cfg); err != nil {
			t.Errorf("Pdes=%d PdesReplayWorkers=%d rejected: %v", rw.pdes, rw.replay, err)
		}
	}

	// Pipelining was removed: the deprecated field is refused whatever
	// else the config asks for.
	const removed = "core: pdes window/replay pipelining was removed; leave PdesPipeline false"
	for _, pdes := range []struct{ workers, replay int }{{0, 0}, {4, 0}, {4, 1}, {2, 2}, {4, 4}} {
		cfg := base
		cfg.Pdes, cfg.PdesReplayWorkers, cfg.PdesPipeline = pdes.workers, pdes.replay, true
		if err := cfg.Validate(); err == nil || err.Error() != removed {
			t.Errorf("Pdes=%d PdesReplayWorkers=%d PdesPipeline: err = %v, want %q",
				pdes.workers, pdes.replay, err, removed)
		}
	}
}

// TestPdesDeterministic verifies the engine's reproducibility contract:
// at a fixed (seed, Pdes) every run produces a byte-
// identical digest, and the domain partition is independent of host
// scheduling.
func TestPdesDeterministic(t *testing.T) {
	cfg := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
	cfg.Pdes = 4
	want := pdesDigest(t, mustRun(t, cfg))
	for i := 0; i < 2; i++ {
		if got := pdesDigest(t, mustRun(t, cfg)); got != want {
			t.Fatalf("run %d diverged from first run:\n%s\nvs\n%s", i+2, got, want)
		}
	}
}

// TestShardedReplayBitIdentical pins that the deprecated
// PdesReplayWorkers, which once selected the bank-sharded barrier replay,
// changes nothing: at 0 and at 2 (the benchmark's value) the full
// golden digest is byte-identical, for VMs confined to their bank group
// (affinity) and for VMs spanning groups (round-robin).
func TestShardedReplayBitIdentical(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"affinity", fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)},
		{"spanning", fastCfg(16, sched.RoundRobin, workload.TPCW, workload.SPECjbb)},
	}
	for _, c := range cfgs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Pdes = 4
			want := pdesDigest(t, mustRun(t, cfg))
			cfg.PdesReplayWorkers = 2
			if got := pdesDigest(t, mustRun(t, cfg)); got != want {
				t.Errorf("PdesReplayWorkers=2 diverged from 0:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestPdesEquivalence bounds the parallel engine's deviation from the
// sequential oracle on the gated metrics across engine-relevant
// configurations: isolation (few active cores), consolidation (all 16),
// private and shared LLC organizations, and over-commitment.
func TestPdesEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the full suite")
	}
	const bound = 0.12
	cases := []struct {
		name string
		cfg  Config
	}{
		{"isolated-tpch", fastCfg(4, sched.Affinity, workload.TPCH)},
		{"consolidated-private", fastCfg(1, sched.Affinity, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)},
		{"consolidated-shared", fastCfg(16, sched.RoundRobin, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)},
		{"homogeneous-jbb", fastCfg(4, sched.Affinity, workload.SPECjbb, workload.SPECjbb, workload.SPECjbb, workload.SPECjbb)},
	}
	over := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
	over.ThreadsPerVM = 8
	over.TimesliceCycles = 5_000
	cases = append(cases, struct {
		name string
		cfg  Config
	}{"overcommit", over})

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want := pdesOracle(t, c.cfg) // once per case, not once per worker count
			for _, workers := range []int{2, 4, 8} {
				if worst := pdesWorstErr(t, want, c.cfg, workers); worst > bound {
					t.Errorf("workers=%d worst rel err %.4f > %.2f", workers, worst, bound)
				}
			}
		})
	}
}

// FuzzPdesOrdering fuzzes the cross-domain event ordering: arbitrary
// seeds and worker counts must stay within the
// equivalence bound of the sequential oracle AND be internally
// deterministic (two runs at the same inputs byte-identical). This is
// the adversarial check on the window protocol: a race or an
// order-dependent merge shows up as either divergence between repeats
// or a blown bound.
func FuzzPdesOrdering(f *testing.F) {
	f.Add(uint64(1), 4)
	f.Add(uint64(7), 2)
	f.Add(uint64(42), 8)
	f.Fuzz(func(t *testing.T, seed uint64, workers int) {
		if workers < 2 || workers > 16 {
			t.Skip()
		}
		cfg := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb)
		cfg.Seed = seed
		cfg.WarmupRefs = 5_000
		cfg.MeasureRefs = 20_000
		cfg.Pdes = workers

		first := pdesDigest(t, mustRun(t, cfg))
		if second := pdesDigest(t, mustRun(t, cfg)); second != first {
			t.Fatalf("nondeterministic at seed=%d workers=%d", seed, workers)
		}
		// Tiny runs are noisy; the fuzz bound is looser than the
		// measurement-scale equivalence gate but still catches protocol
		// breakage (which produces order-of-magnitude divergence).
		if worst := comparePdes(t, cfg, workers); worst > 0.35 {
			t.Fatalf("seed=%d workers=%d worst rel err %.4f", seed, workers, worst)
		}
	})
}

// TestPdesStatsShape checks the provenance plumbing: a parallel run
// reports its workers, barrier count and replay time, and a sequential
// run reports none.
func TestPdesStatsShape(t *testing.T) {
	cfg := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb)
	cfg.Pdes = 4
	res := mustRun(t, cfg)
	if res.Pdes.Workers != 4 {
		t.Errorf("Workers = %d, want 4", res.Pdes.Workers)
	}
	if res.Pdes.Windows == 0 || res.Pdes.ApplySeconds <= 0 || res.Pdes.StallSeconds < 0 {
		t.Errorf("Windows/ApplySeconds/StallSeconds = %d/%v/%v, want > 0, > 0, >= 0",
			res.Pdes.Windows, res.Pdes.ApplySeconds, res.Pdes.StallSeconds)
	}

	seq := cfg
	seq.Pdes = 0
	if sres := mustRun(t, seq); sres.Pdes != (PdesStats{}) {
		t.Errorf("sequential run reports pdes stats: %+v", sres.Pdes)
	}
}

// TestPdesTouchedBlocks verifies the per-domain footprint shadows fold
// into exact per-VM touched-block counts (within the deviation the
// engine's stream perturbation allows).
func TestPdesTouchedBlocks(t *testing.T) {
	cfg := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb)
	par := cfg
	par.Pdes = 4
	seq := cfg
	seq.Pdes = 1
	pres, sres := mustRun(t, par), mustRun(t, seq)
	for i := range sres.VMs {
		if pres.VMs[i].TouchedBlocks == 0 {
			t.Errorf("vm%d: zero touched blocks under pdes", i)
		}
		if e := pdesRelErr(float64(pres.VMs[i].TouchedBlocks), float64(sres.VMs[i].TouchedBlocks)); e > 0.10 {
			t.Errorf("vm%d: touched blocks %d vs sequential %d (rel err %.3f)",
				i, pres.VMs[i].TouchedBlocks, sres.VMs[i].TouchedBlocks, e)
		}
	}
}
