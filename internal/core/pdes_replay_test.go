package core

import (
	"testing"

	"consim/internal/sched"
	"consim/internal/sim"
	"consim/internal/workload"
)

// TestShardedReplayBitIdentical is the sharded replay's core contract:
// at any replay worker count the full golden digest is byte-identical
// to the serial replay at the same (seed, Pdes, window). Sharding is a
// pure execution-strategy change — the deferred merges reconstruct the
// serial order exactly — so this is equality, not a tolerance bound.
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
			serial := c.cfg
			serial.Pdes = 4
			want := pdesDigest(t, mustRun(t, serial))
			for _, rw := range []int{2, 4, 8} {
				sharded := serial
				sharded.PdesReplayWorkers = rw
				if got := pdesDigest(t, mustRun(t, sharded)); got != want {
					t.Errorf("replay-workers=%d diverged from serial replay:\n%s\nvs\n%s", rw, got, want)
				}
			}
		})
	}
}

// TestPdesPipelineDeterministic checks the pipelined mode's contract:
// it is NOT bit-identical to the unpipelined engine (the one-window
// replica staleness is a modeled accuracy trade), but it must be
// byte-identical across repeated runs at the same (seed, workers,
// window) and stay within the sequential-oracle equivalence bound.
func TestPdesPipelineDeterministic(t *testing.T) {
	cfg := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
	cfg.Pdes = 4
	cfg.PdesReplayWorkers = 4
	cfg.PdesPipeline = true
	want := pdesDigest(t, mustRun(t, cfg))
	for i := 0; i < 2; i++ {
		if got := pdesDigest(t, mustRun(t, cfg)); got != want {
			t.Fatalf("pipelined run %d diverged from first run", i+2)
		}
	}
	if worst := comparePdes(t, cfg, 4); worst > 0.12 {
		t.Errorf("pipelined worst rel err %.4f > 0.12 vs sequential oracle", worst)
	}
}

// TestPdesReplayValidation rejects replay/pipeline knob combinations
// the engine cannot honor.
func TestPdesReplayValidation(t *testing.T) {
	base := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb)

	bad := []func(*Config){
		func(c *Config) { c.Pdes = 4; c.PdesReplayWorkers = -1 },
		func(c *Config) { c.PdesReplayWorkers = 2 },             // replay workers without the parallel engine
		func(c *Config) { c.Pdes = 1; c.PdesReplayWorkers = 2 }, // Pdes=1 runs the sequential reference
		func(c *Config) { c.PdesPipeline = true },               // pipeline without the parallel engine
		func(c *Config) { c.Pdes = 4; c.PdesPipeline = true },   // pipeline needs sharded replay
		func(c *Config) { c.Pdes = 4; c.PdesReplayWorkers = 1; c.PdesPipeline = true },
	}
	for i, mut := range bad {
		cfg := base
		mut(&cfg)
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("bad replay config %d accepted", i)
		}
	}

	good := base
	good.Pdes = 4
	good.PdesReplayWorkers = 4
	good.PdesPipeline = true
	if _, err := NewSystem(good); err != nil {
		t.Errorf("valid sharded+pipelined config rejected: %v", err)
	}
}

// TestPdesReplayStatsShape checks the new provenance fields: a sharded
// run reports its replay worker count and parallel/merge phase seconds,
// and a pipelined run flags itself.
func TestPdesReplayStatsShape(t *testing.T) {
	cfg := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb)
	cfg.Pdes = 4
	cfg.PdesReplayWorkers = 4
	res := mustRun(t, cfg)
	if res.Pdes.ReplayWorkers != 4 {
		t.Errorf("ReplayWorkers = %d, want 4", res.Pdes.ReplayWorkers)
	}
	if res.Pdes.Pipelined {
		t.Error("unpipelined run reports Pipelined")
	}
	if res.Pdes.ReplayParallelSeconds <= 0 || res.Pdes.ReplayMergeSeconds <= 0 {
		t.Errorf("replay phase seconds = %.6f/%.6f, want both > 0",
			res.Pdes.ReplayParallelSeconds, res.Pdes.ReplayMergeSeconds)
	}
	if res.Pdes.ReplayParallelSeconds+res.Pdes.ReplayMergeSeconds > res.Pdes.ApplySeconds {
		t.Errorf("parallel+merge %.6f exceeds total apply %.6f",
			res.Pdes.ReplayParallelSeconds+res.Pdes.ReplayMergeSeconds, res.Pdes.ApplySeconds)
	}

	pipe := cfg
	pipe.PdesPipeline = true
	pres := mustRun(t, pipe)
	if !pres.Pdes.Pipelined {
		t.Error("pipelined run does not report Pipelined")
	}
	if pres.Pdes.PipelineOverlapSeconds <= 0 {
		t.Errorf("PipelineOverlapSeconds = %.6f, want > 0", pres.Pdes.PipelineOverlapSeconds)
	}

	serial := cfg
	serial.PdesReplayWorkers = 0
	sres := mustRun(t, serial)
	if sres.Pdes.ReplayWorkers != 0 || sres.Pdes.ReplayParallelSeconds != 0 {
		t.Errorf("serial-replay run reports sharded stats: %+v", sres.Pdes)
	}
}

// FuzzShardedReplayOrdering is the adversarial oracle for the sharded
// path: across arbitrary seeds, worker counts and window widths, the
// sharded replay must stay byte-identical to the serial replay, and the
// pipelined variant must be internally deterministic and within the
// loose fuzz equivalence bound of the sequential reference.
func FuzzShardedReplayOrdering(f *testing.F) {
	f.Add(uint64(1), 4, 2, uint32(8192))
	f.Add(uint64(7), 2, 8, uint32(1024))
	f.Add(uint64(42), 8, 4, uint32(65536))
	f.Add(uint64(1234), 3, 16, uint32(4096))
	f.Fuzz(func(t *testing.T, seed uint64, workers, replayWorkers int, window uint32) {
		if workers < 2 || workers > 16 || replayWorkers < 2 || replayWorkers > 16 {
			t.Skip()
		}
		if window < 64 || window > 1<<20 {
			t.Skip()
		}
		cfg := fastCfg(4, sched.RoundRobin, workload.TPCW, workload.SPECjbb)
		cfg.Seed = seed
		cfg.WarmupRefs = 5_000
		cfg.MeasureRefs = 20_000
		cfg.PdesWindow = sim.Cycle(window)
		cfg.Pdes = workers

		want := pdesDigest(t, mustRun(t, cfg))
		sharded := cfg
		sharded.PdesReplayWorkers = replayWorkers
		if got := pdesDigest(t, mustRun(t, sharded)); got != want {
			t.Fatalf("sharded replay diverged at seed=%d workers=%d rw=%d window=%d",
				seed, workers, replayWorkers, window)
		}

		pipe := sharded
		pipe.PdesPipeline = true
		first := pdesDigest(t, mustRun(t, pipe))
		if second := pdesDigest(t, mustRun(t, pipe)); second != first {
			t.Fatalf("pipelined nondeterministic at seed=%d workers=%d rw=%d window=%d",
				seed, workers, replayWorkers, window)
		}
		if worst := comparePdes(t, pipe, workers); worst > 0.35 {
			t.Fatalf("pipelined seed=%d workers=%d rw=%d window=%d worst rel err %.4f",
				seed, workers, replayWorkers, window, worst)
		}
	})
}
