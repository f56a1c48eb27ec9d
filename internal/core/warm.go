// Fast functional-warming walk.
//
// Fast-forward only needs the functional plane to evolve: cache tags and
// LRU order, directory sharer/owner state, the directory tag caches and
// the per-VM scratch counters. The generic access walk under ffTiming
// (access.go) gets that right, but it still pays everything the timing
// models exist for — mesh route and bank/memctrl calls that collapse to
// no-ops yet cost call dispatch, latency arithmetic threaded through
// every branch, and per-reference interface and cursor traffic in the
// reference source. This file is the warming specialization ROADMAP
// item 2 calls for: a compact walk that performs exactly the ffTiming
// walk's state mutations, in exactly its order — bit-identical final
// cache/directory/dircache state, identical RNG draw sequence, identical
// scratch counters (warm_test.go pins this against the retained ffLoop
// oracle) — and nothing else.
//
// Two things make it fast:
//
//   - per-core invariants (VM, stats sink, cache pointers, LLC group,
//     thread id) are hoisted into warmCore contexts built once per run —
//     sampling validation pins each active core to a single fixed
//     runnable, so the hoist is sound across every fast-forward;
//   - references drain straight out of the workload generator's
//     per-thread ring through a cached slice (one bounds-checked index
//     per reference instead of an interface call plus cursor
//     load/store), refilling through the generator's own cold path so
//     shared-cursor draws happen at exactly the old refill points.
//
// On footprints too big for the host caches it also calls the lookahead
// prefetch it shares with the detailed loop (lookahead.go), one context
// rotation ahead of each ring reference.
//
// Measured honestly (paired A/B against the oracle on one system, since
// the walks are state-identical): ~1.1-1.2x over the generic walk at the
// F3/F4 isolation scale; at full 4-VM mix scale ~1.1x from the
// specialization and a further ~1.3x from the lookahead. The generic
// walk under ffTiming already skips most timing work, so the remaining
// cost is the functional warming itself — set scans, directory updates,
// RNG draws — which bit-identity pins. See EXPERIMENTS.md for the
// resulting ff cost ratios.
package core

import (
	"fmt"
	"math/bits"

	"consim/internal/cache"
	"consim/internal/coherence"
	"consim/internal/sim"
	"consim/internal/vm"
	"consim/internal/workload"
)

// warmCore is one active core's warming context: every per-reference
// invariant of the fast-forward loop, hoisted. Valid for the whole run —
// validateSample rejects rebalancing and over-commitment, so an active
// core's runnable (and hence its VM, thread and stats sink) is fixed.
type warmCore struct {
	m    *vm.VM
	st   *vm.Stats // &ffStats[vmID]: warming counters, never measurement
	l0   *cache.Cache
	l1   *cache.Cache
	bank *cache.Cache // the core's group bank

	// Ring-direct reference supply (statistical generator): ring aliases
	// the generator's per-thread ring, whose backing array is stable
	// across refills; pos mirrors the generator's cursor and is written
	// back at loop exit.
	gen  *workload.Generator // nil: fall back to the Source interface
	ring []workload.Access
	pos  int

	c      int
	g      int // groupOf(c), hoisted
	thread int
	vtag   uint8

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
			st:     &s.ffStats[run.vmID],
			l0:     s.l0[c],
			l1:     s.l1[c],
			bank:   s.banks[s.groupOf(c)],
			c:      c,
			g:      s.groupOf(c),
			thread: run.thread,
			vtag:   uint8(run.vmID),
		}
		if g, ok := m.Gen.(*workload.Generator); ok {
			wc.gen = g
		}
		s.warm = append(s.warm, wc)
	}
}

// warmForward streams one fast-forward's budgets through the warming
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
				s.prefetchRef(wc.c, int(wc.vtag), wc.ring[wc.pos].Block)
			}
			wc.m.Touch(a.Block)
			addr := wc.m.AddrOf(a.Block)
			// L0 hits dominate every Table II workload; handle them in
			// the loop body so the common reference is one cache probe.
			if w0, ok := wc.l0.Lookup(addr); ok {
				if a.Write {
					warmWriteHitL0(s, wc, addr, w0)
				}
				continue
			}
			warmMissL0(s, wc, addr, a.Write)
		}
	}
}

// warmWriteHitL0 is writeHitL0TM's functional plane: a store that hit in
// L0, with the L1 state deciding silent store, silent E->M upgrade, or a
// coherence upgrade through the home node.
func warmWriteHitL0(s *System, wc *warmCore, addr sim.Addr, w0 cache.Way) {
	l0, l1 := wc.l0, wc.l1
	w1, ok := l1.Probe(addr)
	if !ok {
		panic(fmt.Sprintf("core: L0/L1 inclusion violated at %#x", addr))
	}
	switch {
	case l1.State(w1) == cache.Modified:
		l0.SetState(w0, cache.Modified)
	case l1.State(w1) == cache.Exclusive:
		// Silent E->M upgrade; record dirty ownership.
		l1.SetState(w1, cache.Modified)
		e := s.dir.Get(addr)
		e.L1Owner = int8(wc.c)
		e.L2Owner = int8(wc.g)
		if bw, ok := wc.bank.Probe(addr); ok {
			wc.bank.SetState(bw, cache.Modified)
		}
		l0.SetState(w0, cache.Modified)
	default:
		// Shared: coherence upgrade through the home node.
		wc.st.Upgrades++
		e := warmInvalidateOthers(s, wc, addr)
		e.L1Owner = int8(wc.c)
		e.L2Owner = int8(wc.g)
		l1.SetState(w1, cache.Modified)
		if bw, ok := wc.bank.Probe(addr); ok {
			wc.bank.SetState(bw, cache.Modified)
		}
		l0.SetState(w0, cache.Modified)
	}
}

// warmMissL0 continues a reference past an L0 miss: L1 hit handling
// (including the write-upgrade paths) or the full fetch.
func warmMissL0(s *System, wc *warmCore, addr sim.Addr, write bool) {
	l1 := wc.l1
	if w1, ok := l1.Lookup(addr); ok {
		switch {
		case !write:
			s.fillL0(wc.c, addr, l1.State(w1), wc.vtag)
		case l1.State(w1) == cache.Modified:
			s.fillL0(wc.c, addr, cache.Modified, wc.vtag)
		case l1.State(w1) == cache.Exclusive:
			// Silent E->M upgrade; record dirty ownership.
			l1.SetState(w1, cache.Modified)
			e := s.dir.Get(addr)
			e.L1Owner = int8(wc.c)
			e.L2Owner = int8(wc.g)
			if bw, ok := wc.bank.Probe(addr); ok {
				wc.bank.SetState(bw, cache.Modified)
			}
			s.fillL0(wc.c, addr, cache.Modified, wc.vtag)
		default:
			// Shared: coherence upgrade through the home node.
			wc.st.Upgrades++
			e := warmInvalidateOthers(s, wc, addr)
			e.L1Owner = int8(wc.c)
			e.L2Owner = int8(wc.g)
			l1.SetState(w1, cache.Modified)
			if bw, ok := wc.bank.Probe(addr); ok {
				wc.bank.SetState(bw, cache.Modified)
			}
			s.fillL0(wc.c, addr, cache.Modified, wc.vtag)
		}
		return
	}
	wc.st.PrivMisses++
	warmFetch(s, wc, addr, write)
}

// warmFetch is fetchTM's functional plane: probe the group bank, then
// the directory, touch the supplier's state, install in the bank and
// fill the private hierarchy.
func warmFetch(s *System, wc *warmCore, addr sim.Addr, write bool) {
	st := wc.st
	g := wc.g
	bank := wc.bank

	bw, bHit := bank.Lookup(addr)
	e := s.dir.Get(addr)

	if bHit {
		if !e.HasL2(g) {
			panic(fmt.Sprintf("core: bank %d holds %#x but directory disagrees", g, addr))
		}
		if o := int(e.L1Owner); o >= 0 && o != wc.c {
			// A sibling's L1 holds the line dirty; owner supplies and
			// downgrades. The owner's L1 access latency is added outside
			// the timing model in fetchTM, so even the ffTiming walk
			// charges it to the scratch MissLatSum; mirror that for
			// bit-identical scratch counters.
			s.downgradeOwner(o, addr, e)
			st.C2CDirty++
			st.MissLatSum += DefaultL1Latency
		}
	} else {
		// LLC miss for this VM.
		st.LLCMisses++
		home := s.dir.Home(addr)
		s.dirCache.Access(home, addr)

		switch {
		case e.L1Owner >= 0:
			// Dirty in a remote core's private cache. As on the bank-hit
			// owner path, the L1 access latency lands in scratch
			// MissLatSum even under ffTiming.
			o := int(e.L1Owner)
			s.downgradeOwner(o, addr, e)
			st.C2CDirty++
			st.MissLatSum += DefaultL1Latency
		case e.L2Owner >= 0:
			// Dirty in a remote bank: supplier keeps the line Owned.
			b := int(e.L2Owner)
			sw, ok := s.banks[b].Probe(addr)
			if !ok {
				panic(fmt.Sprintf("core: directory owner bank %d lost %#x", b, addr))
			}
			if s.banks[b].State(sw) == cache.Modified {
				s.banks[b].SetState(sw, cache.Owned)
			}
			st.C2CDirty++
		case e.L2Count() > 0:
			st.C2CClean++
		default:
			st.MemReads++
		}

		// Install in the local bank.
		bankState := cache.Shared
		if !e.OnChip() {
			bankState = cache.Exclusive
		}
		victim, evicted, nw := bank.Insert(addr, bankState, wc.vtag)
		bw = nw
		if evicted {
			// The victim's release may backward-shift addr's own slot;
			// only then is a re-fetch of e needed.
			warmEvictBankLine(s, g, victim)
			e = s.dir.Get(addr)
		}
		e.AddL2(g)
	}

	// Exclusivity for writes: invalidate every other copy.
	if write && (e.L2Count() > 1 || e.L1Sharers != 0) {
		e = warmInvalidateOthers(s, wc, addr)
	}

	// Fill the private hierarchy, demoting stale Exclusive copies first.
	s.demoteExclusives(wc.c, addr, e)
	var pState cache.State
	switch {
	case write:
		pState = cache.Modified
		e.L1Owner = int8(wc.c)
		e.L2Owner = int8(g)
		bank.SetState(bw, cache.Modified)
	case e.L1Sharers == 0 && e.L2Count() == 1 && !e.Dirty():
		pState = cache.Exclusive
	default:
		pState = cache.Shared
	}
	// Record the new private sharer before filling: fillL1 can evict a
	// victim whose directory Release reshapes the flat table, after which
	// e must not be dereferenced.
	e.AddL1(wc.c)
	s.fillL1(wc.c, addr, pState, wc.vtag)
	s.fillL0(wc.c, addr, pState, wc.vtag)
}

// warmInvalidateOthers is invalidateOthersTM's functional plane: the
// home-node dircache touch, then dropping every private and bank copy
// other than the requester's own and clearing ownership. Returns the
// entry (nothing here reshapes the table).
func warmInvalidateOthers(s *System, wc *warmCore, addr sim.Addr) *coherence.Entry {
	home := s.dir.Home(addr)
	s.dirCache.Access(home, addr)
	st := wc.st
	e := s.dir.Get(addr)
	// Private copies at other cores (ascending over the sharer mask).
	for m := e.L1Sharers &^ (1 << uint(wc.c)); m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		s.dropPrivate(o, addr, e)
		st.Invalidations++
	}
	// Bank copies in other groups (a dirty victim's writeback is a
	// timing-model no-op during warming).
	for m := e.L2Sharers &^ (1 << uint(wc.g)); m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		s.banks[b].Invalidate(addr)
		e.DropL2(b)
		st.Invalidations++
	}
	e.L1Owner = -1
	e.L2Owner = -1
	return e
}

// warmEvictBankLine is evictBankLineTM's functional plane: on an LLC
// bank eviction, back-invalidate the group's private copies (inclusion)
// and update the directory; the dirty writeback is a timing no-op.
func warmEvictBankLine(s *System, g int, victim cache.Line) {
	addr := victim.Tag
	si, ok := s.dir.ProbeSlot(addr)
	if !ok {
		return
	}
	e := s.dir.EntryAt(si)
	for o := g * s.cfg.GroupSize; o < (g+1)*s.cfg.GroupSize; o++ {
		if !e.HasL1(o) {
			continue
		}
		s.dropPrivate(o, addr, e)
		s.backInvals++
	}
	e.DropL2(g)
	s.dir.ReleaseSlot(si)
}
