package core

// Randomized protocol stress: hammer the hierarchy with random accesses
// from all cores over a small address pool (maximizing conflict and
// coherence churn), then cross-check every piece of cached state against
// every other: inclusion, directory masks vs actual residency, ownership
// vs dirty states.

import (
	"math/bits"
	"testing"

	"consim/internal/cache"
	"consim/internal/sched"
	"consim/internal/sim"
	"consim/internal/workload"
)

// checkGlobalConsistency validates all cross-component invariants.
func checkGlobalConsistency(t *testing.T, s *System) {
	t.Helper()

	// 1. Directory invariants (owner-in-mask).
	if err := s.dir.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// 2. L0 subset of L1; L1 subset of the group's bank (inclusion).
	for c := 0; c < s.cfg.Cores; c++ {
		g := s.groupOf(c)
		s.l0[c].ForEach(func(l *cache.Line) {
			if _, ok := s.l1[c].Probe(l.Tag); !ok {
				t.Fatalf("core %d: L0 line %#x not in L1", c, l.Tag)
			}
		})
		s.l1[c].ForEach(func(l *cache.Line) {
			if _, ok := s.banks[g].Probe(l.Tag); !ok {
				t.Fatalf("core %d: L1 line %#x not in bank %d", c, l.Tag, g)
			}
		})
	}

	// 3. Directory L1 mask == actual L1 residency, exactly.
	for c := 0; c < s.cfg.Cores; c++ {
		s.l1[c].ForEach(func(l *cache.Line) {
			e, ok := s.dir.Probe(l.Tag)
			if !ok || !e.HasL1(c) {
				t.Fatalf("core %d holds %#x but directory does not know", c, l.Tag)
			}
			// Modified lines must be the recorded owner.
			if l.State == cache.Modified && e.L1Owner != int8(c) {
				t.Fatalf("core %d holds %#x Modified but owner is %d", c, l.Tag, e.L1Owner)
			}
		})
	}

	// 4. Directory L2 mask == actual bank residency, both directions.
	for g := range s.banks {
		s.banks[g].ForEach(func(l *cache.Line) {
			e, ok := s.dir.Probe(l.Tag)
			if !ok || !e.HasL2(g) {
				t.Fatalf("bank %d holds %#x but directory does not know", g, l.Tag)
			}
			if l.State.Dirty() && e.L1Owner < 0 && e.L2Owner != int8(g) {
				t.Fatalf("bank %d holds %#x dirty (%v) but L2 owner is %d", g, l.Tag, l.State, e.L2Owner)
			}
		})
	}

	// 5. Every directory claim is backed by a real copy: every live entry
	// is on chip (all on-chip lines are in some bank, by inclusion), and
	// each sharer bit names an L1 or bank that holds the line. Checks 3
	// and 4 found an entry for each resident line, so a live count equal
	// to the distinct bank-resident lines leaves no entry unaccounted for
	// — which bounds the directory by the lines the banks hold, the bound
	// NewSystem sizes its table from.
	resident := map[sim.Addr]bool{}
	bankLines := 0
	for g := range s.banks {
		s.banks[g].ForEach(func(l *cache.Line) {
			resident[l.Tag] = true
			bankLines++
		})
	}
	if len(resident) == 0 {
		t.Fatal("stress run left no cached state to verify")
	}
	for a := range resident {
		e, _ := s.dir.Probe(a)
		for m := e.L1Sharers; m != 0; m &= m - 1 {
			if c := bits.TrailingZeros64(m); !holds(s.l1[c], a) {
				t.Fatalf("directory lists core %d for %#x, which its L1 does not hold", c, a)
			}
		}
		for m := e.L2Sharers; m != 0; m &= m - 1 {
			if g := bits.TrailingZeros64(m); !holds(s.banks[g], a) {
				t.Fatalf("directory lists bank %d for %#x, which it does not hold", g, a)
			}
		}
	}
	if n := s.dir.Len(); n != len(resident) || n > bankLines {
		t.Fatalf("directory tracks %d lines; %d distinct lines (%d copies) are resident in the banks",
			n, len(resident), bankLines)
	}
}

// holds reports whether c has a copy of addr.
func holds(c *cache.Cache, addr sim.Addr) bool {
	_, ok := c.Probe(addr)
	return ok
}

func TestStressRandomTrafficConsistency(t *testing.T) {
	for _, gs := range []int{1, 2, 4, 8, 16} {
		gs := gs
		cfg := DefaultConfig(
			workload.Specs()[workload.TPCH],
			workload.Specs()[workload.SPECjbb],
			workload.Specs()[workload.TPCW],
			workload.Specs()[workload.SPECweb],
		)
		cfg.GroupSize = gs
		cfg.Policy = sched.RoundRobin
		cfg.Scale = 64
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := sim.NewRNG(uint64(gs) * 7919)
		// A tiny pool of hot lines per VM plus same-set aliases drives
		// constant eviction, upgrade and transfer churn.
		const pool = 600
		for i := 0; i < 120_000; i++ {
			c := r.Intn(cfg.Cores)
			vmID := sys.currentVM(c)
			block := r.Uint64n(pool)
			if r.Bool(0.1) {
				// Alias into a far region to force set conflicts.
				block += uint64(sys.banks[0].Lines())
			}
			addr := sys.vms[vmID].AddrOf(block)
			sys.access(c, vmID, addr, r.Bool(0.3))
			sys.now += sim.Cycle(r.Intn(3))
		}
		checkGlobalConsistency(t, sys)
	}
}

func TestStressSingleLineAllCores(t *testing.T) {
	// Worst-case coherence ping-pong: every core reads and writes one
	// line of one VM... but VMs own disjoint regions, so the sharpest
	// legal contention is all threads of one VM on one line.
	cfg := DefaultConfig(workload.Specs()[workload.TPCH])
	cfg.GroupSize = 4
	cfg.Scale = 64
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cores := sys.Assignment()[0]
	a := sys.vms[0].AddrOf(3)
	r := sim.NewRNG(123)
	for i := 0; i < 30_000; i++ {
		c := cores[r.Intn(len(cores))]
		sys.access(c, 0, a, r.Bool(0.5))
		sys.now += 1
	}
	checkGlobalConsistency(t, sys)
	// Exactly one dirty owner (or none) must remain.
	e, ok := sys.dir.Probe(a)
	if !ok {
		t.Fatal("line lost")
	}
	owners := 0
	for _, c := range cores {
		if w, ok := sys.l1[c].Probe(a); ok && sys.l1[c].State(w) == cache.Modified {
			owners++
			if e.L1Owner != int8(c) {
				t.Errorf("modified copy at core %d but owner is %d", c, e.L1Owner)
			}
		}
	}
	if owners > 1 {
		t.Fatalf("%d simultaneous Modified copies", owners)
	}
}

func TestStressAdversarialSetConflicts(t *testing.T) {
	// All accesses land in a single cache set at every level,
	// guaranteeing continuous eviction and back-invalidation.
	cfg := DefaultConfig(workload.Specs()[workload.SPECjbb])
	cfg.GroupSize = 4
	cfg.Scale = 64
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cores := sys.Assignment()[0]
	bankSets := uint64(sys.banks[0].Lines() / 16)
	r := sim.NewRNG(321)
	for i := 0; i < 40_000; i++ {
		c := cores[r.Intn(len(cores))]
		// Same set index in the bank, varied tags.
		block := r.Uint64n(64) * bankSets
		if block >= sys.vms[0].Gen.FootprintBlocks() {
			block %= sys.vms[0].Gen.FootprintBlocks()
		}
		sys.access(c, 0, sys.vms[0].AddrOf(block), r.Bool(0.25))
		sys.now += sim.Cycle(r.Intn(2))
	}
	checkGlobalConsistency(t, sys)
}
