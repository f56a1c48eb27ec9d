package core

// Tests for the §VII future-work extensions: larger machines (scaling
// studies) and checkpoint replay.

import (
	"bytes"
	"testing"

	"consim/internal/sched"
	"consim/internal/trace"
	"consim/internal/workload"
)

func TestLargerMachine32Cores(t *testing.T) {
	all := workload.Specs()
	specs := []workload.Spec{}
	for i := 0; i < 8; i++ {
		specs = append(specs, all[workload.Class(i%int(workload.NumClasses))])
	}
	cfg := DefaultConfig(specs...)
	cfg.Cores = 32
	cfg.GroupSize = 4
	cfg.LLCBytes = 32 << 20
	cfg.Scale = 32
	cfg.WarmupRefs = 20_000
	cfg.MeasureRefs = 40_000
	res := mustRun(t, cfg)
	if len(res.VMs) != 8 {
		t.Fatalf("got %d VMs", len(res.VMs))
	}
	for _, v := range res.VMs {
		if v.Stats.Refs == 0 {
			t.Errorf("vm %d idle", v.VM)
		}
	}
	if len(res.Snapshot.Occupancy) != 8 {
		t.Errorf("expected 8 bank groups, got %d", len(res.Snapshot.Occupancy))
	}
}

func TestLargerMachine64Cores(t *testing.T) {
	all := workload.Specs()
	specs := []workload.Spec{}
	for i := 0; i < 16; i++ {
		specs = append(specs, all[workload.TPCH])
	}
	cfg := DefaultConfig(specs...)
	cfg.Cores = 64
	cfg.GroupSize = 8
	cfg.LLCBytes = 64 << 20
	cfg.Scale = 64
	cfg.WarmupRefs = 10_000
	cfg.MeasureRefs = 20_000
	res := mustRun(t, cfg)
	if len(res.VMs) != 16 {
		t.Fatalf("got %d VMs", len(res.VMs))
	}
}

func TestCoresBeyondMaskLimitRejected(t *testing.T) {
	cfg := DefaultConfig(workload.Specs()[workload.TPCH])
	cfg.Cores = 128
	cfg.GroupSize = 4
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("128-core machine accepted beyond the 64-node mask limit")
	}
}

func TestTraceReplayEquivalence(t *testing.T) {
	// A simulation driven by a recorded trace must exactly match one
	// driven by the live generator that produced the trace.
	spec := workload.Specs()[workload.TPCH].Scaled(64)
	const refsPerThread = 40_000

	var rebuf bytes.Buffer
	if _, err := trace.Capture(&rebuf, workload.NewGenerator(spec, 4, 42), 4, refsPerThread); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(rebuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	mk := func(src workload.Source) Result {
		cfg := DefaultConfig(spec)
		cfg.Scale = 1 // spec pre-scaled
		cfg.GroupSize = 4
		cfg.WarmupRefs = 8_000
		cfg.MeasureRefs = 16_000
		cfg.Sources = []workload.Source{src}
		return mustRun(t, cfg)
	}
	live := mk(workload.NewGenerator(spec, 4, 42))
	replay := mk(rd)

	// Replaying the same trace twice is bit-exact: this is the paper's
	// checkpoint property ("the same set of transactions are run in
	// each simulation").
	rd2, err := trace.NewReader(bytes.NewReader(append([]byte(nil), rebuf.Bytes()...)))
	if err != nil {
		t.Fatal(err)
	}
	replay2 := mk(rd2)
	if replay.Cycles != replay2.Cycles || replay.VMs[0].Stats != replay2.VMs[0].Stats {
		t.Fatalf("two replays of one trace differ:\n%+v\n%+v", replay.VMs[0].Stats, replay2.VMs[0].Stats)
	}

	// Live generation interleaves threads by simulated timing, while the
	// capture froze a round-robin interleaving of the *shared* cursors
	// (scan, cold sweep) — the workload-level non-determinism §V cites
	// Alameldeen-Wood for. The two runs agree closely but not exactly.
	ratio := float64(live.Cycles) / float64(replay.Cycles)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("live/replay cycles diverge: %d vs %d", live.Cycles, replay.Cycles)
	}
}

func TestTraceSourceLengthMismatchRejected(t *testing.T) {
	spec := workload.Specs()[workload.TPCH]
	cfg := DefaultConfig(spec, spec)
	cfg.Sources = make([]workload.Source, 1)
	if cfg.Validate() == nil {
		t.Error("mismatched Sources length accepted")
	}
}

func TestRegionMissBreakdown(t *testing.T) {
	res := mustRun(t, fastCfg(1, sched.Affinity, workload.TPCH))
	st := res.VMs[0].Stats
	var sum uint64
	for _, n := range st.RegionMisses {
		sum += n
	}
	if sum != st.LLCMisses {
		t.Fatalf("region misses %d do not sum to LLC misses %d", sum, st.LLCMisses)
	}
	// TPC-H's private sweeps and shared tails must both miss; the
	// migratory region is where its dirty transfers originate.
	if st.RegionMisses[workload.RegionPrivate] == 0 ||
		st.RegionMisses[workload.RegionMigratory] == 0 {
		t.Errorf("region breakdown degenerate: %v", st.RegionMisses)
	}
}
