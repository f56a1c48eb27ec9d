package core

import (
	"testing"

	"consim/internal/cache"
)

// A sampled run's warm-up (warmUp in sample.go): one detailed pilot
// window, then the rest of WarmupRefs through the warming walk.

// activeRefs returns the detailed reference counts of the active cores.
func activeRefs(s *System) []uint64 {
	var out []uint64
	for c := range s.cores {
		if s.cores[c].active {
			out = append(out, s.cores[c].refs)
		}
	}
	return out
}

// TestSampledWarmupContract pins what WarmupRefs still promises under
// the functional warm-up: every active core issues at least WarmupRefs
// references, detailed plus functional, and a core that was faster in
// the pilot gets no smaller a functional budget; the detailed part is
// exactly one window for the slowest core; none of it is booked as
// skipped or measured; and the first window's target counts from the
// pilot, not from WarmupRefs.
func TestSampledWarmupContract(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		cfg := sampledCfg()
		cfg.Seed = seed
		pilot, warm := cfg.Sample.WindowRefs, cfg.WarmupRefs

		sys := newSeededSystem(t, cfg)
		sys.warmUp(0)
		bud := sys.ffBudget // the warm-up fast-forward's apportionment
		slowest, slowestBud := ^uint64(0), ^uint64(0)
		for c := range sys.cores {
			cs := &sys.cores[c]
			if !cs.active {
				if bud[c] != 0 {
					t.Errorf("seed %d: idle core %d fast-forwarded %d refs", seed, c, bud[c])
				}
				continue
			}
			if cs.refs+bud[c] < warm {
				t.Errorf("seed %d: core %d warmed with %d detailed + %d functional refs, want >= %d", seed, c, cs.refs, bud[c], warm)
			}
			for d := range sys.cores {
				if sys.cores[d].active && sys.cores[d].refs < cs.refs && bud[d] > bud[c] {
					t.Errorf("seed %d: core %d (pilot %d refs) got %d functional refs, slower core %d (pilot %d) got %d",
						seed, c, cs.refs, bud[c], d, sys.cores[d].refs, bud[d])
				}
			}
			slowest, slowestBud = min(slowest, cs.refs), min(slowestBud, bud[c])
		}
		sa := sys.sample
		if slowest != pilot || sa.WarmupDetailedRefs != pilot {
			t.Errorf("seed %d: slowest core issued %d detailed warm-up refs, stats say %d, want the pilot window's %d", seed, slowest, sa.WarmupDetailedRefs, pilot)
		}
		if sa.WarmupFunctionalRefs != slowestBud || slowestBud < warm-pilot || slowestBud > warm-pilot+1 {
			t.Errorf("seed %d: slowest core fast-forwarded %d warm-up refs, stats say %d, want %d", seed, slowestBud, sa.WarmupFunctionalRefs, warm-pilot)
		}
		if sa.SkippedRefs != 0 || sa.DetailedRefs != 0 || sa.Windows != 0 || sys.phaseProf.SampleFFSeconds != 0 {
			t.Errorf("seed %d: warm-up booked as sampling work: %+v, %gs of fast-forward", seed, sa, sys.phaseProf.SampleFFSeconds)
		}
		if ff := sys.phaseProf.WarmupFFSeconds; ff <= 0 || ff > sys.simSeconds {
			t.Errorf("seed %d: warm-up fast-forward took %gs of a %gs warm-up", seed, ff, sys.simSeconds)
		}

		// One window and stop: the slowest core ends at pilot + window.
		cfg.Sample.MaxRefs = cfg.Sample.WindowRefs
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Sample.Windows != 1 || res.Sample.SkippedRefs != 0 {
			t.Fatalf("seed %d: want one window and nothing skipped: %+v", seed, res.Sample)
		}
		slowest = ^uint64(0)
		for _, r := range activeRefs(sys) {
			slowest = min(slowest, r)
		}
		if want := pilot + cfg.Sample.WindowRefs; slowest != want {
			t.Errorf("seed %d: first window ended with the slowest core at %d detailed refs, want %d", seed, slowest, want)
		}
		if res.FFCostRatio() != 0 {
			t.Errorf("seed %d: ff cost ratio %g from a run that skipped nothing between windows", seed, res.FFCostRatio())
		}
		if p := res.Phase; p.WarmupFFSeconds <= 0 || p.WarmupFFSeconds >= p.WarmupSeconds || p.SampleFFSeconds != 0 {
			t.Errorf("seed %d: phase profile %+v", seed, p)
		}
	}
}

// windowEntryDigest folds what the first window starts from: the warming
// digest (caches, directory, directory caches, scratch counters), the
// cores' detailed progress, the generators' cursors and simulated time.
func windowEntryDigest(s *System) uint64 {
	h := warmStateDigest(s)
	for _, r := range activeRefs(s) {
		h = cache.MixDigest(h, r)
	}
	for _, m := range s.vms {
		h = cache.MixDigest(h, m.Gen.TotalRefs())
	}
	return cache.MixDigest(h, uint64(s.now))
}

// TestSampledWarmupDeterministic pins the state a sampled run enters
// its first window with: the same on every repeat of a seed, different
// between seeds. The per-core RNGs and ring cursors are digested by what
// they produce: the state, simulated time and miss statistics the window
// ends with.
func TestSampledWarmupDeterministic(t *testing.T) {
	seen := make(map[uint64]uint64)
	for _, seed := range []uint64{1, 2, 3} {
		var wantEntry, wantExit uint64
		for i := 0; i < 2; i++ {
			cfg := sampledCfg()
			cfg.Seed = seed
			sys := newSeededSystem(t, cfg)
			sys.warmUp(0)
			entry := windowEntryDigest(sys)
			sys.runUntil(sys.sample.WarmupDetailedRefs + cfg.Sample.WindowRefs)
			exit := windowEntryDigest(sys)
			for _, m := range sys.vms {
				exit = cache.MixDigest(exit, m.Stats.LLCMisses)
				exit = cache.MixDigest(exit, uint64(m.Stats.MissLatSum))
			}
			if i == 0 {
				wantEntry, wantExit = entry, exit
				if other, dup := seen[entry]; dup {
					t.Errorf("seeds %d and %d enter the first window in the same state", other, seed)
				}
				seen[entry] = seed
				continue
			}
			if entry != wantEntry {
				t.Errorf("seed %d repeat: first-window entry digest %#x, want %#x", seed, entry, wantEntry)
			}
			if exit != wantExit {
				t.Errorf("seed %d repeat: first-window exit digest %#x, want %#x", seed, exit, wantExit)
			}
		}
	}
}

// TestWarmupUnchangedWhereNotSampled holds the other half of the
// change: a detailed run, and a sampled one whose warm-up fits in one
// window, warm up exactly as before — the whole of WarmupRefs through
// the detailed engine, no functional references. (results/golden pins
// the detailed runs' results byte for byte.)
func TestWarmupUnchangedWhereNotSampled(t *testing.T) {
	detailed := sampledCfg()
	detailed.Sample = SampleConfig{}
	short := sampledCfg()
	short.WarmupRefs = short.Sample.WindowRefs
	shorter := sampledCfg()
	shorter.WarmupRefs = shorter.Sample.WindowRefs / 2
	for name, cfg := range map[string]Config{"detailed": detailed, "warmup=window": short, "warmup<window": shorter} {
		got, old := newSeededSystem(t, cfg), newWarmSystem(t, cfg)
		got.warmUp(0)
		if a, b := windowEntryDigest(got), windowEntryDigest(old); a != b {
			t.Errorf("%s: warm-up state %#x, the all-detailed warm-up's is %#x", name, a, b)
		}
		if got.ffStats != nil || got.sample.WarmupFunctionalRefs != 0 || got.phaseProf.WarmupFFSeconds != 0 {
			t.Errorf("%s: warm-up fast-forwarded: %+v", name, got.sample)
		}
		if want := min(cfg.Sample.WindowRefs, cfg.WarmupRefs); got.sample.WarmupDetailedRefs != want {
			t.Errorf("%s: WarmupDetailedRefs = %d, want %d", name, got.sample.WarmupDetailedRefs, want)
		}
	}
	// End to end: the short warm-up's sampled windows count from
	// WarmupRefs, as they always did.
	res := mustRun(t, short)
	if res.Sample.WarmupDetailedRefs != short.WarmupRefs || res.Sample.WarmupFunctionalRefs != 0 {
		t.Errorf("short warm-up: %+v", res.Sample)
	}
}
