package core

import (
	"testing"

	"consim/internal/obs"
	"consim/internal/sched"
	"consim/internal/workload"
)

// TestManifestLayersMatchRegistry checks the run record's memory-system
// ledger against the live registry: one observed run's Manifest.Layers
// must equal the gauges the registry holds when the run ends, and an
// unobserved run of the same config must record the same ledger.
func TestManifestLayersMatchRegistry(t *testing.T) {
	cfg := fastCfg(4, sched.RoundRobin, workload.TPCW, workload.TPCH)
	cfg.WarmupRefs, cfg.MeasureRefs = 10_000, 20_000
	plain := mustRun(t, cfg)

	o := obs.NewObserver(nil, nil, nil)
	cfg.Obs = o.Hooks()
	res := mustRun(t, cfg)
	m := ManifestFor(cfg, res, 1)
	if m.Layers == nil {
		t.Fatal("manifest carries no memory-system ledger")
	}

	v, s := o.Reg.Value, o.Sim
	var reg obs.Layers
	for i := range reg.Cache {
		reg.Cache[i] = obs.CacheCounts{
			Accesses:  v(s.LevelAccesses[i]),
			Misses:    v(s.LevelMisses[i]),
			Evictions: v(s.LevelEvictions[i]),
		}
	}
	reg.DirEntries = v(s.DirEntries)
	reg.DirCacheHits, reg.DirCacheMisses = v(s.DirCacheHits), v(s.DirCacheMisses)
	reg.MemReads, reg.MemWritebacks, reg.MemWaitCycles = v(s.MemReads2), v(s.MemWritebacks), v(s.MemWaitCycles)
	if *m.Layers != reg {
		t.Errorf("manifest ledger %+v\n  registry gauges %+v", *m.Layers, reg)
	}
	if plain.Layers != res.Layers {
		t.Errorf("unobserved run's ledger %+v differs from the observed run's %+v", plain.Layers, res.Layers)
	}

	// The ledger covers the measurement window: every measured reference
	// looks up an L0, and every demand read a VM counted reached a
	// controller.
	var refs, memReads uint64
	for _, vm := range res.VMs {
		refs += vm.Stats.Refs
		memReads += vm.Stats.MemReads
	}
	if got := res.Layers.Cache[0].Accesses; got != refs {
		t.Errorf("L0 accesses %d, want the %d measured references", got, refs)
	}
	if got := res.Layers.MemReads; got != memReads {
		t.Errorf("controller reads %d, want the VMs' %d", got, memReads)
	}
}
