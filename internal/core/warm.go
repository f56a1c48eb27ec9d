// Fast-forward reference supply.
//
// Fast-forward only needs the functional plane to evolve: cache tags and
// LRU order, directory sharer/owner state, the directory tag caches and
// the per-VM scratch counters. The access walk under ffTiming (access.go)
// does exactly that, and it is the only coherence walk there is: every
// reference this file issues ends in accessTM. What is specialized here
// is how fast-forward gets its references: issuing them through the
// plain ffLoop rotation instead costs a sampled run about 9% of its wall
// (EXPERIMENTS.md "Fast functional warming"), whereas a functional copy
// of the walk buys a few percent at most — not worth a second protocol
// to keep bit-identical by hand. The supply:
//
//   - per-core invariants (VM, thread id, ring cursor) are hoisted into
//     warmCore contexts built once per run — sampling validation pins
//     each active core to a single fixed runnable, so the hoist is sound
//     across every fast-forward;
//   - references drain straight out of the workload generator's
//     per-thread ring through a cached slice (one bounds-checked index
//     per reference instead of an interface call plus cursor
//     load/store), refilling through the generator's own cold path so
//     shared-cursor draws happen at exactly the Next path's refill
//     points;
//   - the Bresenham interleave across cores is computed incrementally;
//   - on footprints too big for the host caches, the lookahead prefetch
//     shared with the detailed loop (lookahead.go) runs one context
//     rotation ahead of each ring reference.
//
// The supply must hand accessTM the same references in the same order as
// ffLoop (sample.go), the plain rotation kept as System.ffOracle:
// warm_test.go holds the two to bit-identical cache, directory, dircache
// and scratch-counter state, for ring and non-ring sources.
package core

import (
	"consim/internal/vm"
	"consim/internal/workload"
)

// warmCore is one active core's supply context: every per-reference
// invariant of the fast-forward loop, hoisted. Valid for the whole run —
// placement is static and validateSample rejects over-commitment, so an
// active core's runnable (and hence its VM and thread) is fixed.
type warmCore struct {
	m *vm.VM

	// Ring-direct reference supply (statistical generator): ring aliases
	// the generator's per-thread ring, whose backing array is stable
	// across refills; pos mirrors the generator's cursor and is written
	// back at loop exit.
	gen  *workload.Generator // nil: fall back to the Source interface
	ring []workload.Access
	pos  int

	c      int
	vmID   int
	thread int

	bud uint64 // reference budget for the current fast-forward
	acc uint64 // Bresenham accumulator (see warmLoop)
}

// warmSetup builds the warming contexts on first use. Compacted over
// active cores in core-index order, so warmLoop's iteration matches
// ffLoop's core rotation exactly.
func (s *System) warmSetup() {
	if s.warm != nil {
		return
	}
	s.warm = make([]warmCore, 0, s.activeCores)
	for c := range s.cores {
		cs := &s.cores[c]
		if !cs.active {
			continue
		}
		run := cs.queue[cs.cur]
		m := s.vms[run.vmID]
		wc := warmCore{
			m:      m,
			c:      c,
			vmID:   run.vmID,
			thread: run.thread,
		}
		if g, ok := m.Gen.(*workload.Generator); ok {
			wc.gen = g
		}
		s.warm = append(s.warm, wc)
	}
}

// warmForward streams one fast-forward's budgets through the access
// walk. bud is indexed by core (ffBudgets' layout).
func (s *System) warmForward(bud []uint64) {
	s.warmSetup()
	wcs := s.warm
	var rounds uint64
	for i := range wcs {
		wc := &wcs[i]
		wc.bud = bud[wc.c]
		wc.acc = 0
		if wc.bud > rounds {
			rounds = wc.bud
		}
		if wc.gen != nil {
			// Re-sync the ring cursor: detailed windows consumed through
			// the generator's Next path since the last fast-forward.
			wc.ring, wc.pos = wc.gen.WarmRing(wc.thread)
		}
	}
	warmLoop(s, rounds)
	for i := range wcs {
		wc := &wcs[i]
		if wc.gen != nil {
			wc.gen.WarmSetPos(wc.thread, wc.pos)
		}
	}
}

// warmNext drains the generator ring directly (cold path: the
// generator's own refill, so shared sampling cursors advance at exactly
// the points the Next path would advance them), falling back to the
// Source interface for non-generator sources.
func warmNext(wc *warmCore) workload.Access {
	if wc.gen == nil {
		return wc.m.Gen.Next(wc.thread)
	}
	if wc.pos < len(wc.ring) {
		a := wc.ring[wc.pos]
		wc.pos++
		return a
	}
	wc.pos = 1
	return wc.gen.WarmRefill(wc.thread)
}

// warmLoop issues each context's budget spread evenly across the longest
// budget's rounds — the same Bresenham interleave as ffLoop, computed
// incrementally (one add and compare per context per round instead of
// two multiplies and two divides). Budgets never exceed rounds, so each
// context issues zero or one reference per round, and the accumulator
// identity acc = i*bud mod rounds reproduces ffLoop's
// (i+1)*bud/rounds - i*bud/rounds issue pattern exactly.
func warmLoop(s *System, rounds uint64) {
	wcs := s.warm
	for i := uint64(0); i < rounds; i++ {
		for j := range wcs {
			wc := &wcs[j]
			wc.acc += wc.bud
			if wc.acc < rounds {
				continue
			}
			wc.acc -= rounds
			a := warmNext(wc)
			// This context's next reference sits in the ring one full
			// rotation ahead of its use (lookahead.go). Ring drained or
			// non-ring source: nothing to peek.
			if s.lookahead && wc.pos < len(wc.ring) {
				s.prefetchRef(wc.c, wc.vmID, wc.ring[wc.pos].Block)
			}
			wc.m.Touch(a.Block)
			accessTM(s, ffTiming, wc.c, wc.vmID, wc.m.AddrOf(a.Block), a.Write)
		}
	}
}
