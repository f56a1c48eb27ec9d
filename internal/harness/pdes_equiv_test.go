package harness

import "testing"

// TestParallelEquivalence is the accuracy gate for the split-transaction
// parallel engine: for several seeds and worker counts, a parallel run's
// per-VM LLC miss rate and cycles-per-transaction must agree with the
// sequential run of the same configuration to within DefaultPdesBound.
// A violation is deterministic for a fixed (seed, workers) pair — it
// means the in-window estimator or the barrier replay
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
			par := cfg
			par.Pdes = w
			cmp, err := compareTo(seq, par, DefaultPdesBound)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			ps := cmp.Sampled.Pdes
			if ps.Workers != w || ps.Windows == 0 {
				t.Fatalf("seed %d workers %d: parallel engine did not engage: %+v", seed, w, ps)
			}
			t.Logf("seed %d workers %d: windows=%d maxRelErr=%.3f bound=%.3f",
				seed, w, ps.Windows, cmp.MaxRelErr, cmp.Bound)
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
