package core

import (
	"testing"

	"consim/internal/cache"
)

// warmStateDigest folds every piece of state fast-forward is allowed to
// move — private caches, LLC banks, the directory, the directory caches,
// the warming scratch counters, back-invalidation accounting and the
// workload cursors' observable effect (via vm.Stats after later detailed
// work) — into one value. The warm supply must leave it bit-identical to
// the retained ffLoop rotation.
func warmStateDigest(s *System) uint64 {
	h := uint64(cache.DigestSeed)
	for _, c := range s.l0 {
		h = c.StateDigest(h)
	}
	for _, c := range s.l1 {
		h = c.StateDigest(h)
	}
	for _, b := range s.banks {
		h = b.StateDigest(h)
	}
	h = s.dir.StateDigest(h)
	h = s.dirCache.StateDigest(h)
	h = cache.MixDigest(h, s.backInvals)
	for v := range s.ffStats {
		st := &s.ffStats[v]
		for _, c := range []uint64{
			st.Refs, st.PrivMisses, st.LLCMisses, st.C2CClean, st.C2CDirty,
			st.MemReads, st.Invalidations, st.Upgrades, uint64(st.MissLatSum),
		} {
			h = cache.MixDigest(h, c)
		}
	}
	return h
}

// warmDiffConfigs enumerates the configurations the differential test
// covers: three seeds and a QoS-partitioned variant (exercising the
// partition-aware victim choice in the fused bank scan).
func warmDiffConfigs() map[string]Config {
	cfgs := make(map[string]Config)
	for seed, name := range map[uint64]string{1: "seed1", 2: "seed2", 3: "seed3"} {
		cfg := sampledCfg()
		cfg.Seed = seed
		cfgs[name] = cfg
	}
	qos := sampledCfg()
	qos.QoSPartition = true
	cfgs["qos-partitioned"] = qos
	return cfgs
}

// TestWarmWalkDifferential pins the warm supply's bit-identity contract:
// after warm-up, interleaved fast-forwards and detailed windows, the
// full functional-plane digest — cache tags and recency order, coherence
// states, VM tags, access counters, directory table layout and entries,
// dircache contents and hit/miss accounting, warming scratch counters,
// back-invalidations — matches the plain ffLoop rotation exactly, across
// seeds and QoS partitioning. Both sides run the same access walk under
// ffTiming; what differs is how references reach it (ring-direct draw
// and refill points, incremental Bresenham, the lookahead). The detailed
// window between the fast-forwards exercises the ring-cursor re-sync
// (the detailed loop consumes through the generator's Next path in
// between).
func TestWarmWalkDifferential(t *testing.T) {
	for name, cfg := range warmDiffConfigs() {
		t.Run(name, func(t *testing.T) {
			// The warm side also runs the shared lookahead (forced on: no
			// test-sized footprint trips the gate) in its fast-forwards
			// and detailed windows; the oracle side never does.
			warm := newWarmSystem(t, cfg)
			warm.lookahead = true
			oracle := newWarmSystem(t, cfg)
			oracle.ffOracle = true

			if h1, h2 := warmStateDigest(warm), warmStateDigest(oracle); h1 != h2 {
				t.Fatalf("post-warmup digests differ before any fast-forward: %#x vs %#x", h1, h2)
			}
			drive := func(s *System) {
				s.fastForward(7_000)
				s.runUntil(cfg.WarmupRefs + 2_000)
				s.fastForward(5_000)
			}
			drive(warm)
			drive(oracle)
			if h1, h2 := warmStateDigest(warm), warmStateDigest(oracle); h1 != h2 {
				t.Errorf("warm supply diverged from ffLoop oracle: %#x vs %#x", h1, h2)
			}
			// The detailed window between the fast-forwards must agree too:
			// any warming divergence surfaces as different measurement
			// counters in the following window.
			for v := range warm.vms {
				if warm.vms[v].Stats != oracle.vms[v].Stats {
					t.Errorf("vm %d measurement stats diverged:\nwarm   %+v\noracle %+v",
						v, warm.vms[v].Stats, oracle.vms[v].Stats)
				}
				// Nor may either side have consumed a different number of
				// references from the VM's generator.
				if a, b := warm.vms[v].Gen.TotalRefs(), oracle.vms[v].Gen.TotalRefs(); a != b {
					t.Errorf("vm %d generator consumed %d refs under the warm supply, %d under the oracle", v, a, b)
				}
			}
		})
	}
}

// TestWarmWalkFullRunEquivalence runs the complete sampled engine end to
// end with the warm supply and with the ffLoop oracle and requires
// byte-identical results: same windows, same convergence trajectory,
// same per-VM metrics. A weaker contract than the state digest, but it
// covers the exact production call path through Run.
func TestWarmWalkFullRunEquivalence(t *testing.T) {
	cfg := sampledCfg()
	run := func(oracle bool) Result {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.ffOracle = oracle
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warm, oracle := resultDigest(t, run(false)), resultDigest(t, run(true))
	if warm != oracle {
		t.Errorf("sampled Run with warm supply diverged from ffLoop oracle:\nwarm   %s\noracle %s", warm, oracle)
	}
}

// BenchmarkWarmWalk measures fast-forward throughput (references per
// second) with the plain ffLoop rotation ("generic") and with the warm
// supply ("warm") feeding the same access walk, on the standard sampled
// test machine. The ratio is what the supply buys; the absolute numbers
// anchor the ff_cost_ratio the sample sweep records.
func BenchmarkWarmWalk(b *testing.B) {
	for _, mode := range []struct {
		name   string
		oracle bool
	}{{"generic", true}, {"warm", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := sampledCfg()
			sys, err := NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for c := range sys.cores {
				if sys.cores[c].active {
					sys.q.Push(0, c)
				}
			}
			sys.runUntil(cfg.WarmupRefs)
			sys.ffOracle = mode.oracle
			const perCore = 10_000
			sys.fastForward(perCore) // pull one-time lazy setup out of the loop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.fastForward(perCore)
			}
			b.StopTimer()
			refs := float64(b.N) * perCore * float64(sys.activeCores)
			b.ReportMetric(refs/b.Elapsed().Seconds(), "refs/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/refs, "ns/ref")
		})
	}
}
