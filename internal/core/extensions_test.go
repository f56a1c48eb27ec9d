package core

// Tests for the §VII future-work extensions: larger machines (scaling
// studies).

import (
	"testing"

	"consim/internal/sched"
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
