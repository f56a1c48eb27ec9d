package core

import (
	"runtime"
	"testing"

	"consim/internal/obs"
	"consim/internal/workload"
)

// allocTestHooks builds run hooks with every steady-state-visible sink
// live: metric shards and a -timeseries recorder.
func allocTestHooks() *obs.RunHooks {
	o := obs.NewObserver(nil, nil, nil)
	o.Series = true
	return o.Hooks()
}

// TestSteadyStateAllocBudget is the allocation regression guard for the
// per-reference access path: once the machine is warm (caches and
// directory populated, event queue at its working size), simulating more
// references must be allocation-free — the flat directory stores entries
// by value, and everything else on the path reuses preallocated state.
// The budget tolerates a handful of stragglers (a late directory-table
// growth, runtime bookkeeping) but fails loudly if a per-reference
// allocation sneaks back in.
//
// The run executes with live metrics AND a -timeseries recorder
// attached: the observability layer's publish cadence (shard slot
// writes, time-series column writes) is part of the guarded path and
// must stay allocation-free too. So is the
// lookahead prefetch, forced on here as paper-scale footprints have it.
func TestSteadyStateAllocBudget(t *testing.T) {
	specs := workload.Specs()
	cfg := DefaultConfig(specs[workload.TPCW], specs[workload.SPECjbb],
		specs[workload.TPCH], specs[workload.SPECweb])
	cfg.Scale = 16
	cfg.GroupSize = 4
	cfg.WarmupRefs = 40_000
	cfg.MeasureRefs = 40_000
	cfg.Obs = allocTestHooks()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.setupTS()
	sys.lookahead = true // the lookahead is part of the guarded path at paper scale

	// Mirror Run()'s setup, then measure a second chunk after the first
	// has warmed every structure.
	for c := range sys.cores {
		if sys.cores[c].active {
			sys.q.Push(0, c)
			sys.pending[c] = true
		}
	}
	sys.runUntil(cfg.WarmupRefs)

	const measuredRefs = 40_000 * 16 // per-core target x cores
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys.runUntil(cfg.WarmupRefs + cfg.MeasureRefs)
	runtime.ReadMemStats(&after)

	allocs := after.Mallocs - before.Mallocs
	perRef := float64(allocs) / float64(measuredRefs)
	t.Logf("steady state: %d allocs over %d refs (%.6f allocs/ref, %d bytes)",
		allocs, measuredRefs, perRef, after.TotalAlloc-before.TotalAlloc)
	if perRef > 0.001 {
		t.Fatalf("access path allocates: %.6f allocs/ref (budget 0.001)", perRef)
	}
}

// TestNewSystemHeapBudget bounds the bytes NewSystem allocates for the
// default 16-core machine running the 4-VM mix — every cache array, the
// directory table and caches, the generators' tables, the footprint
// bitmaps. The figure sweep builds dozens of machines, and what a machine
// holds is most of a short run's peak RSS. Each scale is built twice. The
// first build may be the process's first and pay for the Zipf alias
// tables (0.34 MB at scale 16, 5.45 MB at scale 1, with their
// construction scratch); its budgets are the measured 1.97 MB and
// 10.58 MB plus 10%, and hold whichever tests ran before. The second
// build shares the memoised tables, so its budgets are the table-free
// 1.63 MB and 5.13 MB plus 10%: a memo that stops hitting fails them. The
// count repeats to within a few kilobytes per build. Giving each node
// back the directory cache sets it cannot index (3.75 MB) breaks all four.
// The directory table is sized from the lines the LLC can hold: 1 MB at
// scale 16, where the 2 MB table every machine once started with breaks
// both scale-16 budgets; at scale 1 it starts at that 2 MB cap either way.
func TestNewSystemHeapBudget(t *testing.T) {
	specs := workload.Specs()
	for _, tc := range []struct {
		scale           int
		first, repeated uint64
	}{
		{16, 2_170_000, 1_800_000},
		{1, 11_630_000, 5_640_000},
	} {
		cfg := DefaultConfig(specs[workload.TPCW], specs[workload.SPECjbb],
			specs[workload.TPCH], specs[workload.SPECweb])
		cfg.Scale = tc.scale
		for i, budget := range []uint64{tc.first, tc.repeated} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := NewSystem(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("scale %d build %d: NewSystem allocated %d bytes in %d objects (budget %d)",
				tc.scale, i+1, got, after.Mallocs-before.Mallocs, budget)
			if got > budget {
				t.Errorf("scale %d build %d: NewSystem allocated %d bytes, over the %d budget",
					tc.scale, i+1, got, budget)
			}
		}
	}
}

// TestPdesAllocBudget holds the pdes engine to the same steady-state
// budget: the per-domain op logs, pending fills and merge cursors are
// preallocated and recycled across windows, so neither the windows nor
// the barrier replay allocate per reference.
func TestPdesAllocBudget(t *testing.T) {
	specs := workload.Specs()
	cfg := DefaultConfig(specs[workload.TPCW], specs[workload.SPECjbb],
		specs[workload.TPCH], specs[workload.SPECweb])
	cfg.Scale = 16
	cfg.GroupSize = 4
	cfg.WarmupRefs = 40_000
	cfg.MeasureRefs = 40_000
	cfg.Pdes = 4
	cfg.Obs = allocTestHooks()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.setupTS()

	// Mirror Run()'s pdes setup: the engine seeds its own per-domain
	// calendars; only start/stop the worker pool around the run.
	sys.pdes.start()
	defer sys.pdes.stop()
	sys.runUntil(cfg.WarmupRefs)

	const measuredRefs = 40_000 * 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys.runUntil(cfg.WarmupRefs + cfg.MeasureRefs)
	runtime.ReadMemStats(&after)

	allocs := after.Mallocs - before.Mallocs
	perRef := float64(allocs) / float64(measuredRefs)
	t.Logf("pdes steady state: %d allocs over %d refs (%.6f allocs/ref, %d bytes), stats %+v",
		allocs, measuredRefs, perRef, after.TotalAlloc-before.TotalAlloc, sys.pdes.stats)
	if perRef > 0.001 {
		t.Fatalf("pdes path allocates: %.6f allocs/ref (budget 0.001)", perRef)
	}
}
