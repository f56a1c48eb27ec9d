package core

import (
	"fmt"
	"reflect"
	"testing"

	"consim/internal/coherence"
	"consim/internal/sched"
	"consim/internal/workload"
)

// dirSlotsOf returns the directory table's slot count, 0 while a bounded
// directory owns no table (its slots are the embedded one-slot
// placeholder). Capacity is not part of the coherence API; reflection
// reads its unexported fields.
func dirSlotsOf(d *coherence.Directory) int {
	v := reflect.ValueOf(d).Elem()
	if slots := v.FieldByName("slots"); slots.Pointer() != v.FieldByName("none").UnsafeAddr() {
		return slots.Len()
	}
	return 0
}

// dirTableBytesOf returns the directory table's size in bytes, 0 while
// a bounded directory owns none.
func dirTableBytesOf(d *coherence.Directory) int {
	slots := reflect.ValueOf(d).Elem().FieldByName("slots")
	return dirSlotsOf(d) * int(slots.Type().Elem().Size())
}

// slotsFor is the table size a bound of lines live entries asks for: the
// smallest power of two whose 3/4 load holds lines+1.
func slotsFor(lines int) int {
	n := 2
	for n*3/4 < lines+1 {
		n *= 2
	}
	return n
}

// TestDirectoryWithinBound runs scale-16 and paper-scale machines on the
// sequential and sampled engines and holds the directory to the bound
// NewSystem sized it from: the bound counts the banks of exactly the
// groups that host a thread (all of them under rebalancing), the live
// entries never exceed it, and the machine is built without a table and
// allocates it once, at the bound's size, so no interim table or rehash
// chain is left (checked every 2 000 references per core on the
// sequential engine, at the end on the sampled one).
// checkGlobalConsistency then ties every live entry to a resident line.
func TestDirectoryWithinBound(t *testing.T) {
	refs := uint64(20_000) // per core and phase; fills every scale-16 bound
	if testing.Short() {
		refs = 5_000
	}
	mix := func(scale, gs int, pol sched.Policy) Config {
		cfg := fastCfg(gs, pol, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
		cfg.Scale = scale
		cfg.WarmupRefs, cfg.MeasureRefs = refs, refs
		return cfg
	}
	iso := fastCfg(1, sched.Affinity, workload.TPCH)
	iso.WarmupRefs, iso.MeasureRefs = refs, refs
	isoShared := iso
	isoShared.GroupSize = 4
	rebalance := isoShared
	rebalance.Policy = sched.Random
	rebalance.RebalanceCycles = 50_000
	over := overcommitCfg(t, 6)
	over.WarmupRefs, over.MeasureRefs = refs, refs

	cases := []struct {
		name   string
		cfg    Config
		groups int // LLC groups the bound counts
	}{
		{"s16/gs1/rr", mix(16, 1, sched.RoundRobin), 16},
		{"s16/gs4/rr", mix(16, 4, sched.RoundRobin), 4},
		{"s16/gs4/affinity", mix(16, 4, sched.Affinity), 4},
		{"s16/gs16/rr", mix(16, 16, sched.RoundRobin), 1},
		{"s16/iso/gs1", iso, 4},
		{"s16/iso/gs4", isoShared, 1},
		{"s16/iso/gs4/rebalance", rebalance, 4},
		{"s64/overcommit", over, 3}, // 24 threads, two per core on cores 0-11
		{"paper/gs4/rr", mix(1, 4, sched.RoundRobin), 4},
		{"paper/gs16/affinity", mix(1, 16, sched.Affinity), 1},
	}
	for _, tc := range cases {
		if testing.Short() && tc.cfg.Scale == 1 {
			continue // minutes under -race; the full run keeps it
		}
		for _, sampled := range []bool{false, true} {
			if sampled && (tc.cfg.RebalanceCycles > 0 || tc.cfg.TimesliceCycles > 0) {
				continue // sampling rejects rebalancing and over-commit
			}
			cfg := tc.cfg
			name := tc.name
			if sampled {
				cfg.Sample = SampleConfig{WindowRefs: 2_000, MinWindows: 2, MaxRefs: cfg.MeasureRefs}
				name += "/sampled"
			}
			// The sequential loop is stepped by hand below, so it is
			// seeded as Run would; a sampled system goes through Run.
			var sys *System
			if sampled {
				var err error
				if sys, err = NewSystem(cfg); err != nil {
					t.Fatal(err)
				}
			} else {
				sys = newSeededSystem(t, cfg)
			}
			bound := sys.dirBound()
			if want := int(min(sys.footprintBlocks(), uint64(tc.groups*sys.banks[0].Lines()))); bound != want {
				t.Fatalf("%s: bound %d, want %d (%d groups of %d lines, footprint %d)",
					name, bound, want, tc.groups, sys.banks[0].Lines(), sys.footprintBlocks())
			}
			if first := dirSlotsOf(sys.dir); first != 0 {
				t.Fatalf("%s: NewSystem built a %d-slot directory table; the first fill allocates it", name, first)
			}
			check := func(at string) {
				live, slots := sys.dir.Len(), dirSlotsOf(sys.dir)
				if live > bound {
					t.Fatalf("%s %s: %d live directory entries exceed the bound %d", name, at, live, bound)
				}
				if slots != slotsFor(bound) {
					t.Fatalf("%s %s: table of %d slots; the bound asks for %d", name, at, slots, slotsFor(bound))
				}
			}
			if sampled {
				if _, err := sys.Run(); err != nil {
					t.Fatal(err)
				}
				check("after the run")
			} else {
				// Step the detailed loop so a growth chain through
				// intermediate sizes cannot hide behind a final size that
				// happens to equal the bound's.
				for n := uint64(2_000); n <= cfg.WarmupRefs+cfg.MeasureRefs; n += 2_000 {
					sys.runUntil(n)
					check(fmt.Sprintf("at %d refs/core", n))
				}
			}
			t.Logf("%s: bound %d, %d live, %d slots", name, bound, sys.dir.Len(), dirSlotsOf(sys.dir))
			checkGlobalConsistency(t, sys)
		}
	}
}
