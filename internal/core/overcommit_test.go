package core

// Tests for the §VII over-commitment extension: more threads than cores,
// time-sliced by the hypervisor.

import (
	"testing"

	"consim/internal/sched"
	"consim/internal/workload"
)

func overcommitCfg(t *testing.T, nVMs int) Config {
	t.Helper()
	all := workload.Specs()
	var specs []workload.Spec
	for i := 0; i < nVMs; i++ {
		specs = append(specs, all[workload.Class(i%int(workload.NumClasses))])
	}
	cfg := DefaultConfig(specs...)
	cfg.GroupSize = 4
	cfg.Scale = 64
	cfg.WarmupRefs = 10_000
	cfg.MeasureRefs = 20_000
	cfg.TimesliceCycles = 5_000
	return cfg
}

func TestOvercommitRejectedWithoutTimeslice(t *testing.T) {
	cfg := overcommitCfg(t, 6) // 24 threads on 16 cores
	cfg.TimesliceCycles = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("over-commit without timeslice accepted")
	}
}

func TestOvercommitRunsAllVMs(t *testing.T) {
	cfg := overcommitCfg(t, 6) // 24 threads, capacity 2 per core
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CoreCapacity() != 2 {
		t.Fatalf("capacity = %d, want 2", cfg.CoreCapacity())
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.VMs {
		if v.Stats.Refs == 0 {
			t.Errorf("vm %d made no progress under over-commitment", v.VM)
		}
	}
	if sys.Switches == 0 {
		t.Error("no timeslice rotations recorded")
	}
	checkGlobalConsistency(t, sys)
}

func TestOvercommitSlowsSharers(t *testing.T) {
	// Six VMs on a 16-core chip must each run slower than four VMs
	// (fewer cycles available per thread plus switch overheads).
	run := func(nVMs int) float64 {
		cfg := overcommitCfg(t, nVMs)
		res := mustRun(t, cfg)
		// Mean cycles-per-transaction normalized per workload class is
		// overkill here; total refs per cycle is the clean capacity
		// measure.
		var refs uint64
		for _, v := range res.VMs {
			refs += v.Stats.Refs
		}
		return float64(refs) / float64(res.Cycles)
	}
	throughput4 := run(4)
	throughput6 := run(6)
	// Per-VM progress rate must drop when over-committed.
	if throughput6/6 >= throughput4/4 {
		t.Errorf("per-VM throughput did not drop: 4 VMs %.4f, 6 VMs %.4f",
			throughput4/4, throughput6/6)
	}
}

func TestOvercommitQueueShapes(t *testing.T) {
	cfg := overcommitCfg(t, 8) // 32 threads, capacity 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := range sys.cores {
		if n := len(sys.cores[c].queue); n != 2 {
			t.Errorf("core %d holds %d runnables, want 2", c, n)
		}
	}
}

func TestOvercommitSlotLimit(t *testing.T) {
	all := workload.Specs()
	var specs []workload.Spec
	for i := 0; i < 40; i++ {
		specs = append(specs, all[workload.TPCH])
	}
	cfg := DefaultConfig(specs...)
	cfg.TimesliceCycles = 1000
	cfg.ThreadsPerVM = 4 // 160 threads on 16 cores: 10x > 8x limit
	if cfg.Validate() == nil {
		t.Fatal("10x over-commitment accepted beyond the slot limit")
	}
}

func TestSchedCapacityPlacement(t *testing.T) {
	asg, err := sched.AssignWithCapacity(sched.Affinity, 16, 4, 2, 6, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, threads := range asg {
		for _, c := range threads {
			counts[c]++
			if counts[c] > 2 {
				t.Fatalf("core %d assigned %d threads, capacity 2", c, counts[c])
			}
		}
	}
	if _, err := sched.AssignWithCapacity(sched.Affinity, 16, 4, 0, 1, 4, 1); err == nil {
		t.Error("zero capacity accepted")
	}
}
