package core

import (
	"testing"

	"consim/internal/cache"
	"consim/internal/sched"
	"consim/internal/workload"
)

// fastCfg returns a heavily scaled configuration for quick tests.
func fastCfg(groupSize int, policy sched.Policy, classes ...workload.Class) Config {
	all := workload.Specs()
	var specs []workload.Spec
	for _, c := range classes {
		specs = append(specs, all[c])
	}
	cfg := DefaultConfig(specs...)
	cfg.Scale = 16
	cfg.GroupSize = groupSize
	cfg.Policy = policy
	cfg.WarmupRefs = 40_000
	cfg.MeasureRefs = 80_000
	return cfg
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunDeterminism(t *testing.T) {
	cfg := fastCfg(4, sched.Affinity, workload.TPCH, workload.SPECjbb)
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	for i := range a.VMs {
		if a.VMs[i].Stats != b.VMs[i].Stats {
			t.Fatalf("vm %d stats differ:\n%+v\n%+v", i, a.VMs[i].Stats, b.VMs[i].Stats)
		}
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	cfg := fastCfg(4, sched.Affinity, workload.TPCH)
	a := mustRun(t, cfg)
	cfg.Seed = 999
	b := mustRun(t, cfg)
	if a.Cycles == b.Cycles && a.VMs[0].Stats == b.VMs[0].Stats {
		t.Error("different seeds produced identical runs")
	}
}

// TestStatConservation checks the accounting identities that must hold
// for any run: every LLC miss was satisfied either on-chip or by memory,
// misses nest properly, and latencies are sane.
func TestStatConservation(t *testing.T) {
	for _, gs := range []int{1, 4, 16} {
		for _, classes := range [][]workload.Class{
			{workload.TPCH},
			{workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb},
		} {
			res := mustRun(t, fastCfg(gs, sched.RoundRobin, classes...))
			for _, v := range res.VMs {
				s := v.Stats
				if s.Refs == 0 {
					t.Fatalf("gs=%d vm=%d: no references", gs, v.VM)
				}
				if s.LLCMisses > s.PrivMisses {
					t.Errorf("gs=%d %s: LLC misses %d exceed private misses %d", gs, v.Name, s.LLCMisses, s.PrivMisses)
				}
				if s.MemReads > s.LLCMisses {
					t.Errorf("gs=%d %s: memory reads %d exceed LLC misses %d", gs, v.Name, s.MemReads, s.LLCMisses)
				}
				// Every LLC miss is either a transfer or a memory read;
				// in-group dirty transfers can push C2C above the
				// LLC-miss count but never below the residue.
				if s.C2C()+s.MemReads < s.LLCMisses {
					t.Errorf("gs=%d %s: %d LLC misses but only %d c2c + %d mem", gs, v.Name, s.LLCMisses, s.C2C(), s.MemReads)
				}
				if s.PrivMisses > 0 && s.AvgMissLatency() < float64(DefaultLLCLatency) {
					t.Errorf("gs=%d %s: miss latency %.1f below LLC latency", gs, v.Name, s.AvgMissLatency())
				}
				if v.CyclesPerTx <= 0 || v.TouchedBlocks == 0 {
					t.Errorf("gs=%d %s: degenerate result %+v", gs, v.Name, v)
				}
			}
		}
	}
}

func TestFullySharedHasNoReplication(t *testing.T) {
	res := mustRun(t, fastCfg(16, sched.RoundRobin, workload.SPECjbb, workload.SPECjbb, workload.SPECjbb, workload.SPECjbb))
	if f := res.Snapshot.ReplicationFraction(); f != 0 {
		t.Errorf("fully shared LLC replicated %.3f of lines", f)
	}
}

func TestPrivateRoundRobinReplicates(t *testing.T) {
	res := mustRun(t, fastCfg(1, sched.RoundRobin, workload.SPECjbb, workload.SPECjbb, workload.SPECjbb, workload.SPECjbb))
	if f := res.Snapshot.ReplicationFraction(); f <= 0 {
		t.Error("private caches with a sharing workload showed zero replication")
	}
}

func TestReplicationOrderingRRvsAffinity(t *testing.T) {
	// Under shared-4, RR spreads each workload's threads across banks
	// (replicating shared data); affinity packs them (no replication of
	// a workload's data across banks beyond incidental).
	mk := func(p sched.Policy) float64 {
		res := mustRun(t, fastCfg(4, p, workload.SPECjbb, workload.SPECjbb, workload.SPECjbb, workload.SPECjbb))
		return res.Snapshot.ReplicationFraction()
	}
	rr, aff := mk(sched.RoundRobin), mk(sched.Affinity)
	if rr <= aff {
		t.Errorf("replication rr=%.3f <= affinity=%.3f", rr, aff)
	}
}

func TestOccupancySumsToCapacityShare(t *testing.T) {
	res := mustRun(t, fastCfg(4, sched.RoundRobin, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb))
	for g, occ := range res.Snapshot.Occupancy {
		tot := 0
		for _, n := range occ {
			tot += n
		}
		if tot > res.Snapshot.GroupLines {
			t.Errorf("bank %d holds %d lines of %d capacity", g, tot, res.Snapshot.GroupLines)
		}
		if tot == 0 {
			t.Errorf("bank %d empty at snapshot", g)
		}
		var shares float64
		for v := range occ {
			shares += res.Snapshot.OccupancyShare(g, v)
		}
		if shares < 0.999 || shares > 1.001 {
			t.Errorf("bank %d occupancy shares sum to %v", g, shares)
		}
	}
}

func TestIsolationAffinityBeatsRRForDirtySharing(t *testing.T) {
	// §V-B: in isolation, affinity does better than round robin because
	// a round-robin placement makes dirty misses travel across groups
	// through the directory, while affinity satisfies them inside one
	// shared bank group. TPC-H (dirty-sharing-heavy) shows it clearest.
	aff := mustRun(t, fastCfg(4, sched.Affinity, workload.TPCH))
	rr := mustRun(t, fastCfg(4, sched.RoundRobin, workload.TPCH))
	if aff.VMs[0].AvgMissLatency() >= rr.VMs[0].AvgMissLatency() {
		t.Errorf("affinity miss latency %.1f >= rr %.1f",
			aff.VMs[0].AvgMissLatency(), rr.VMs[0].AvgMissLatency())
	}
}

func TestConsolidationRaisesMissRate(t *testing.T) {
	// SPECjbb packed with three TPC-W copies must miss more than alone
	// with the whole chip (the paper's central observation).
	iso := mustRun(t, fastCfg(16, sched.Affinity, workload.SPECjbb))
	mix := mustRun(t, fastCfg(4, sched.Affinity, workload.SPECjbb, workload.TPCW, workload.TPCW, workload.TPCW))
	isoRate := iso.VMs[0].MissRate()
	mixRate := mix.ByClass(workload.SPECjbb)[0].MissRate()
	if mixRate <= isoRate {
		t.Errorf("consolidated miss rate %.4f <= isolated %.4f", mixRate, isoRate)
	}
}

func TestCapacityGradient(t *testing.T) {
	// Isolated TPC-H: misses must grow monotonically as the LLC share
	// shrinks from fully shared to private (Figure 3's shape).
	var rates []float64
	for _, gs := range []int{16, 4, 1} {
		res := mustRun(t, fastCfg(gs, sched.Affinity, workload.TPCH))
		rates = append(rates, res.VMs[0].MissRate())
	}
	if !(rates[0] < rates[1] && rates[1] < rates[2]) {
		t.Errorf("miss rates not monotone in sharing: %v", rates)
	}
}

func TestMissLatencyIncludesMemoryForThrashingWorkload(t *testing.T) {
	res := mustRun(t, fastCfg(1, sched.Affinity, workload.TPCW))
	if lat := res.VMs[0].AvgMissLatency(); lat < float64(DefaultMemLatency)/2 {
		t.Errorf("TPC-W private miss latency %.1f implausibly low", lat)
	}
}

func TestIdleCoresStayIdle(t *testing.T) {
	// Isolation run: 4 active cores; the other 12 must see no traffic
	// through their private caches.
	cfg := fastCfg(4, sched.Affinity, workload.TPCH)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	active := map[int]bool{}
	for _, threads := range sys.Assignment() {
		for _, c := range threads {
			active[c] = true
		}
	}
	for c := 0; c < cfg.Cores; c++ {
		if active[c] {
			continue
		}
		if sys.l1[c].Accesses != 0 {
			t.Errorf("idle core %d saw %d L1 accesses", c, sys.l1[c].Accesses)
		}
	}
}

func TestVMAddressIsolation(t *testing.T) {
	// No cache line may be tagged with more than one VM over a whole
	// run: VMs have disjoint physical regions.
	cfg := fastCfg(4, sched.RoundRobin, workload.TPCH, workload.SPECjbb, workload.TPCW, workload.SPECweb)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for _, bank := range sys.banks {
		bank.ForEach(func(l *cache.Line) {
			owner := -1
			for i, m := range sys.vms {
				if m.Owns(l.Tag) {
					if owner >= 0 {
						t.Fatalf("line %#x owned by VMs %d and %d", l.Tag, owner, i)
					}
					owner = i
				}
			}
			if owner < 0 {
				t.Fatalf("line %#x owned by no VM", l.Tag)
			}
			if int(l.VM) != owner {
				t.Fatalf("line %#x tagged vm%d but owned by vm%d", l.Tag, l.VM, owner)
			}
		})
	}
}
