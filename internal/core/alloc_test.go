package core

import (
	"runtime"
	"testing"

	"consim/internal/coherence"
	"consim/internal/obs"
	"consim/internal/sched"
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
// tables (0.30 MB at scale 16, 4.67 MB at scale 1, with their
// construction scratch); its budgets are the measured 0.88 MB and
// 7.70 MB plus 10%, and hold whichever tests ran before. The second
// build shares the memoised tables, so its budgets are the table-free
// 0.58 MB and 3.03 MB plus 10%: a memo that stops hitting fails them. The
// count repeats to within a few kilobytes per build. Giving each node
// back the directory cache sets it cannot index (3.75 MB) breaks all four.
// No directory table is built here: the first fill allocates it at the
// bound (TestDirectoryTableAllocatedOnce), so a construction-time table —
// the scale-16 machine's 768 KB one, or a 1.5 MB interim one at scale 1
// — breaks both budgets of its scale.
func TestNewSystemHeapBudget(t *testing.T) {
	specs := workload.Specs()
	for _, tc := range []struct {
		scale           int
		first, repeated uint64
	}{
		{16, 970_000, 645_000},
		{1, 8_470_000, 3_340_000},
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

// dirTableAllocs returns how many directory tables the process has
// allocated, and their bytes, as the heap profile counts them: every
// allocation made under coherence's (*Directory).resize, the one place a
// table is made. runtime.GC publishes the allocations made before it.
func dirTableAllocs(t *testing.T) (n, bytes int64) {
	t.Helper()
	runtime.GC()
	size, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, size+64)
	size, ok := runtime.MemProfile(recs, true)
	if !ok {
		t.Fatalf("heap profile outgrew its %d-record buffer", len(recs))
	}
	for _, r := range recs[:size] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == "consim/internal/coherence.(*Directory).resize" {
				n += r.AllocObjects
				bytes += r.AllocBytes
				break
			}
			if !more {
				break
			}
		}
	}
	return n, bytes
}

// TestDirectoryTableAllocatedOnce profiles every allocation a paper-scale
// machine makes from NewSystem through Run and counts its directory
// tables: exactly one, of the bound's size (12 MB: 2^19 slots of 24
// bytes), made by the first fill. A table built at construction and
// outgrown by the run (a 1.5 MB table filled and rehashed into the 12 MB
// one) makes two.
func TestDirectoryTableAllocatedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds under -race; the full run keeps it")
	}
	cfg := fastCfg(4, sched.RoundRobin, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
	cfg.Scale = 1
	cfg.WarmupRefs, cfg.MeasureRefs = 10_000, 10_000
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	n0, b0 := dirTableAllocs(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	n1, b1 := dirTableAllocs(t)
	want := coherence.TableBytes(sys.dirBound())
	if want != 12<<20 {
		t.Fatalf("paper-scale bound %d asks for a %d-byte table, want 12 MB", sys.dirBound(), want)
	}
	if n, b := n1-n0, b1-b0; n != 1 || b != int64(want) {
		t.Fatalf("NewSystem and Run allocated %d directory tables of %d bytes in all, want one of %d", n, b, want)
	}
	if got := dirTableBytesOf(sys.dir); got != want {
		t.Fatalf("run ended on a %d-byte table, want %d", got, want)
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
