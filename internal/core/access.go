package core

import (
	"fmt"
	"math/bits"

	"consim/internal/cache"
	"consim/internal/coherence"
	"consim/internal/sim"
	"consim/internal/vm"
)

// This file implements the memory-access walk: L0 -> L1 -> LLC bank ->
// directory home -> {remote cache | memory}, with SGI-Origin-style
// three-hop forwarding for cache-to-cache transfers and invalidation on
// writes. Every latency is accumulated on the mesh model (reserving link
// time), the bank/directory occupancy trackers and the memory
// controllers, so contention emerges from the traffic itself.
//
// The walk takes a timing value so the sampled-simulation mode can
// fast-forward functionally and the parallel engine can replay its
// operation logs: liveTiming is the detailed machine (every call mutates
// contention state), ffTiming strips the walk down to its functional
// effects — cache and directory state still evolve reference by
// reference, but the mesh, bank/directory occupancy and memory
// controllers are never touched and per-VM counters land in scratch —
// and applyTiming (pdes.go) is ffTiming that still retires writebacks
// and counts into the real per-VM stats.
//
// What this compiles to: one body per walk function, shared by the three
// models, with a compare on tm wherever they differ. stats, bankAccess,
// memRead and memPenalty inline into the walk; route and dirVisit are
// direct calls. The models are values and not type parameters because
// type parameters would buy nothing: three empty struct types share one
// gcshape, so the compiler emits a single accessTM[go.shape.struct{}]
// that reaches every timing method through the generics dictionary (21
// indirect calls in fetchTM alone), with no specialization and no
// inlining.

// timing selects which of the walk's timing-visible side effects happen.
// Its methods must not touch any state the functional plane (cache
// arrays, directory, workload cursors) depends on; conversely the walk
// routes every contention-state mutation through them.
type timing uint8

const (
	// liveTiming is the detailed machine: every method delegates to the
	// System's contention trackers.
	liveTiming timing = iota
	// ffTiming is the fast-forward model: references update cache and
	// directory state (including the directory caches — functional
	// warming) but reserve nothing on the mesh, banks, directories or
	// memory controllers, and every counter increment lands in per-VM
	// scratch that the measurement metrics never read. Returned times
	// collapse to the caller's `at`, which is fine: nothing in the walk
	// branches on time, and the fast-forward loop discards the latency.
	ffTiming
	// applyTiming is the parallel engine's barrier-replay model: the
	// latency side is free (the in-window estimators already charged the
	// contention replicas), but functional side effects that only exist
	// on the shared tier — directory-cache warming, dirty writebacks
	// reaching the memory controllers — still happen, and counters land
	// in the real per-VM stats.
	applyTiming
)

// route advances a message across the mesh (its unloaded latency in the
// detailed model) and returns its arrival time.
func (tm timing) route(s *System, at sim.Cycle, from, to, flits int) sim.Cycle {
	if tm != liveTiming {
		return at
	}
	return s.route(at, from, to, flits)
}

// bankAccess reserves the LLC slice at node and returns data-ready time.
func (tm timing) bankAccess(s *System, at sim.Cycle, node int) sim.Cycle {
	if tm != liveTiming {
		return at
	}
	return s.bankAccess(at, node)
}

// dirVisit reserves the directory slice at home and performs the
// directory-cache lookup (functional warming in every model).
func (tm timing) dirVisit(s *System, at sim.Cycle, home int, addr sim.Addr) (sim.Cycle, bool) {
	if tm != liveTiming {
		return at, s.dirCache.Access(home, addr)
	}
	return s.dirVisit(at, home, addr)
}

// memRead issues a demand fetch at a controller.
func (tm timing) memRead(s *System, at sim.Cycle, addr sim.Addr) sim.Cycle {
	if tm != liveTiming {
		return at
	}
	return s.mem.Read(at, addr)
}

// writeback retires dirty data at a controller.
func (tm timing) writeback(s *System, at sim.Cycle, addr sim.Addr) {
	if tm != ffTiming {
		s.mem.Writeback(at, addr)
	}
}

// memPenalty is the DRAM charge for an uncached directory entry.
func (tm timing) memPenalty(s *System) sim.Cycle {
	if tm != liveTiming {
		return 0
	}
	return s.cfg.Mem.Latency
}

// stats returns the counter sink for vmID's reference.
func (tm timing) stats(s *System, vmID int) *vm.Stats {
	if tm == ffTiming {
		return &s.ffStats[vmID]
	}
	return &s.vms[vmID].Stats
}

// route advances a message of the given flit count across the mesh and
// returns its arrival time.
func (s *System) route(at sim.Cycle, from, to, flits int) sim.Cycle {
	if from == to {
		return at
	}
	return s.net.Latency(at, from, to, flits)
}

// bankAccess reserves the LLC slice at node and returns data-ready time.
func (s *System) bankAccess(at sim.Cycle, node int) sim.Cycle {
	start := sim.Max(at, s.bankBusy[node])
	s.bankBusy[node] = start + bankOccupancy
	return start + DefaultLLCLatency
}

// dirVisit reserves the directory slice at home and returns the
// completion time of the on-chip lookup plus whether the entry was in the
// home's directory cache. On a miss the authoritative state must come
// from DRAM — but that fetch only delays the requester when the *data*
// is supplied on chip; a memory-sourced miss reads the directory state
// and the line in the same DRAM access (SGI-Origin keeps them together),
// so callers charge the penalty per supplier.
func (s *System) dirVisit(at sim.Cycle, home int, addr sim.Addr) (sim.Cycle, bool) {
	start := sim.Max(at, s.dirBusy[home])
	s.dirBusy[home] = start + dirOccupancy
	return start + dirLatency, s.dirCache.Access(home, addr)
}

// access performs one reference by core c on behalf of vmID under the
// detailed timing model and returns its total latency.
func (s *System) access(c, vmID int, addr sim.Addr, write bool) sim.Cycle {
	return accessTM(s, liveTiming, c, vmID, addr, write)
}

// accessTM performs one reference by core c on behalf of vmID and
// returns its total latency under the given timing model.
//
// The L0 read-hit return is the simulator's fastest path: hits dominate
// every Table II workload, a read hit changes no coherence or directory
// state, and the L0/L1 state-sync invariant (co-resident lines always
// share a state; the write path still asserts inclusion) means nothing
// else needs to be consulted.
func accessTM(s *System, tm timing, c, vmID int, addr sim.Addr, write bool) sim.Cycle {
	l0 := s.l0[c]
	if w0, ok := l0.Lookup(addr); ok {
		if !write {
			return DefaultL0Latency
		}
		return writeHitL0TM(s, tm, c, vmID, addr, w0)
	}

	l1 := s.l1[c]
	vtag := uint8(vmID)
	if w1, ok := l1.Lookup(addr); ok {
		if !write {
			s.fillL0(c, addr, l1.State(w1), vtag)
			return DefaultL1Latency
		}
		lat := DefaultL1Latency
		if l1.State(w1) != cache.Modified {
			lat = upgradeL1TM(s, tm, c, vmID, addr, w1, lat)
		}
		s.fillL0(c, addr, cache.Modified, vtag)
		return lat
	}

	// Miss in the last level of private cache: the paper's miss-latency
	// metric starts here.
	st := tm.stats(s, vmID)
	st.PrivMisses++
	now := s.now
	done := fetchTM(s, tm, c, vmID, addr, write)
	st.MissLatSum += done - now
	return done - now
}

// writeHitL0TM services a store that hit in L0: the line is resident in
// L1 too (inclusion is asserted here, off the read path), and the L1
// state decides whether the store is silent or an upgrade.
func writeHitL0TM(s *System, tm timing, c, vmID int, addr sim.Addr, w0 cache.Way) sim.Cycle {
	l1 := s.l1[c]
	w1, ok := l1.Probe(addr)
	if !ok {
		panic(fmt.Sprintf("core: L0/L1 inclusion violated at %#x", addr))
	}
	lat := DefaultL0Latency
	if l1.State(w1) != cache.Modified {
		lat = upgradeL1TM(s, tm, c, vmID, addr, w1, lat)
	}
	s.l0[c].SetState(w0, cache.Modified)
	return lat
}

// upgradeL1TM upgrades core c's Exclusive or Shared L1 copy of addr (way
// w1) to Modified for a store that hit in the private hierarchy, and
// returns the store's latency: silentLat (the hit level's latency) for
// the silent E->M upgrade, the invalidation round trip for a Shared
// line's coherence upgrade through the home node. The caller brings L0
// in line afterwards.
func upgradeL1TM(s *System, tm timing, c, vmID int, addr sim.Addr, w1 cache.Way, silentLat sim.Cycle) sim.Cycle {
	l1 := s.l1[c]
	g := s.groupOf(c)
	lat := silentLat
	var e *coherence.Entry
	if l1.State(w1) == cache.Exclusive {
		// Silent E->M upgrade; record dirty ownership.
		e = s.dir.Get(addr)
	} else {
		// Shared: coherence upgrade through the home node.
		st := tm.stats(s, vmID)
		st.Upgrades++
		var done sim.Cycle
		done, e = invalidateOthersTM(s, tm, s.now, c, addr, st)
		lat = done - s.now
	}
	e.L1Owner = int8(c)
	e.L2Owner = int8(g)
	l1.SetState(w1, cache.Modified)
	if bw, ok := s.banks[g].Probe(addr); ok {
		s.banks[g].SetState(bw, cache.Modified)
	}
	return lat
}

// fetchTM services a private-level miss: probe the core's LLC bank group,
// then the directory, then a remote cache or memory; fill the private
// hierarchy on the way back. Returns the completion time.
func fetchTM(s *System, tm timing, c, vmID int, addr sim.Addr, write bool) sim.Cycle {
	st := tm.stats(s, vmID)
	vtag := uint8(vmID)
	g := s.groupOf(c)
	bank := s.banks[g]
	bnode := s.bankNode(g, addr)
	// The fill at the end evicts this L1 victim through its directory
	// bucket (evictPrivateVictim); the failed L1 lookup has just pulled
	// its set into host cache, so naming it is cheap, and the whole walk
	// below overlaps the bucket's host-memory fetch (lookahead.go).
	if s.victimHints {
		if vt, ok := s.l1[c].PeekVictimTag(addr, vtag); ok {
			s.dir.PrefetchProbe(vt)
		}
	}

	// A core's access to its own group's LLC costs the flat Table III
	// latency (plus slice occupancy) at every sharing degree — the
	// paper's machine does not charge NUCA distance within a group. The
	// mesh carries directory, cache-to-cache, invalidation and memory
	// traffic.
	t := tm.bankAccess(s, s.now, bnode)
	bw, bHit := bank.Lookup(addr)
	if !bHit && s.victimHints {
		// Likewise the bank victim, which the install below releases
		// (evictBankLineTM) from the set Lookup just scanned.
		if vt, ok := bank.PeekVictimTag(addr, vtag); ok {
			s.dir.PrefetchRelease(vt)
		}
	}
	e := s.dir.Get(addr)

	if bHit {
		if !e.HasL2(g) {
			panic(fmt.Sprintf("core: bank %d holds %#x but directory disagrees", g, addr))
		}
		if o := int(e.L1Owner); o >= 0 && o != c {
			// A sibling's L1 holds the line dirty (the write path
			// invalidates all other groups, so the owner is in-group).
			// Bank forwards; the owner supplies and downgrades.
			at := tm.route(s, t, bnode, o, CtrlFlits)
			at += DefaultL1Latency
			s.downgradeOwner(o, addr, e)
			t = tm.route(s, at, o, c, DataFlits)
			st.C2CDirty++
		}
	} else {
		// LLC miss for this VM.
		st.LLCMisses++
		home := s.dir.Home(addr)
		dirT := tm.route(s, t, bnode, home, CtrlFlits)
		dirT, dirHit := tm.dirVisit(s, dirT, home, addr)
		// On-chip suppliers stall behind an uncached directory entry's
		// DRAM fetch; the memory path reads state and data together.
		onChipDirT := dirT
		if !dirHit {
			onChipDirT += tm.memPenalty(s)
		}

		switch {
		case e.L1Owner >= 0:
			// Dirty in a remote core's private cache; forward to owner.
			o := int(e.L1Owner)
			at := tm.route(s, onChipDirT, home, o, CtrlFlits)
			at += DefaultL1Latency
			s.downgradeOwner(o, addr, e)
			t = tm.route(s, at, o, c, DataFlits)
			st.C2CDirty++
		case e.L2Owner >= 0:
			// Dirty in a remote bank: supplier keeps the line Owned and
			// forwards data (Origin-style dirty sharing).
			b := int(e.L2Owner)
			sn := s.bankNode(b, addr)
			at := tm.route(s, onChipDirT, home, sn, CtrlFlits)
			at = tm.bankAccess(s, at, sn)
			sw, ok := s.banks[b].Probe(addr)
			if !ok {
				panic(fmt.Sprintf("core: directory owner bank %d lost %#x", b, addr))
			}
			if s.banks[b].State(sw) == cache.Modified {
				s.banks[b].SetState(sw, cache.Owned)
			}
			t = tm.route(s, at, sn, c, DataFlits)
			st.C2CDirty++
		case e.L2Count() > 0:
			// Clean copy in some remote bank.
			b := e.OtherL2(g)
			sn := s.bankNode(b, addr)
			at := tm.route(s, onChipDirT, home, sn, CtrlFlits)
			at = tm.bankAccess(s, at, sn)
			t = tm.route(s, at, sn, c, DataFlits)
			st.C2CClean++
		default:
			// Off-chip.
			st.MemReads++
			mn := s.mem.Node(addr)
			at := tm.route(s, dirT, home, mn, CtrlFlits)
			at = tm.memRead(s, at, addr)
			t = tm.route(s, at, mn, c, DataFlits)
		}

		// Install in the local bank.
		bankState := cache.Shared
		if !e.OnChip() {
			bankState = cache.Exclusive
		}
		victim, evicted, nw := bank.Insert(addr, bankState, vtag)
		bw = nw
		if evicted {
			// The victim's release may backward-shift addr's own slot;
			// only then is a re-fetch of e needed.
			evictBankLineTM(s, tm, g, victim)
			e = s.dir.Get(addr)
		}
		e.AddL2(g)
	}

	// Exclusivity for writes: invalidate every other copy (sequential
	// with the data fetch — a mild pessimism).
	if write && (e.L2Count() > 1 || e.L1Sharers != 0) {
		t, e = invalidateOthersTM(s, tm, t, c, addr, st)
	}

	// Fill the private hierarchy. A second sharer demotes any Exclusive
	// private copy so silent E->M upgrades stay coherent.
	s.demoteExclusives(c, addr, e)
	var pState cache.State
	switch {
	case write:
		pState = cache.Modified
		e.L1Owner = int8(c)
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
	e.AddL1(c)
	s.fillL1(c, addr, pState, vtag)
	s.fillL0(c, addr, pState, vtag)
	return t
}

// invalidateOthersTM visits the home node for addr and invalidates every
// private and bank copy other than requester c's own, waiting for the
// slowest ack. It clears line ownership; the caller establishes the new
// owner. It returns the directory entry alongside the ack time: nothing
// here reshapes the table, so callers use it directly instead of paying
// another hash walk.
func invalidateOthersTM(s *System, tm timing, at sim.Cycle, c int, addr sim.Addr, st *vm.Stats) (sim.Cycle, *coherence.Entry) {
	home := s.dir.Home(addr)
	t := tm.route(s, at, c, home, CtrlFlits)
	t, dirHit := tm.dirVisit(s, t, home, addr)
	if !dirHit {
		t += tm.memPenalty(s)
	}

	g := s.groupOf(c)
	e := s.dir.Get(addr)
	ackT := t

	// Private copies at other cores (ascending over the sharer mask,
	// matching the core-index order of the scan this replaced).
	for m := e.L1Sharers &^ (1 << uint(c)); m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		a := tm.route(s, t, home, o, CtrlFlits)
		s.dropPrivate(o, addr, e)
		a = tm.route(s, a, o, c, CtrlFlits)
		ackT = sim.Max(ackT, a)
		st.Invalidations++
	}
	// Bank copies in other groups.
	for m := e.L2Sharers &^ (1 << uint(g)); m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		node := s.bankNode(b, addr)
		a := tm.route(s, t, home, node, CtrlFlits)
		if bl, ok := s.banks[b].Invalidate(addr); ok && bl.State.Dirty() {
			// The invalidated copy was the dirty owner; retire it.
			tm.writeback(s, a, addr)
		}
		e.DropL2(b)
		a = tm.route(s, a, node, c, CtrlFlits)
		ackT = sim.Max(ackT, a)
		st.Invalidations++
	}
	if ackT == t {
		// No sharers: home simply acks.
		ackT = tm.route(s, t, home, c, CtrlFlits)
	}
	e.L1Owner = -1
	e.L2Owner = -1
	return ackT, e
}

// demoteExclusives flips other cores' Exclusive private copies of addr to
// Shared when a new sharer joins; without this a stale E copy could later
// take the silent E->M upgrade while other copies exist.
func (s *System) demoteExclusives(c int, addr sim.Addr, e *coherence.Entry) {
	// Exclusive requires having been the sole sharer at fill time, and
	// this demotion runs whenever a second sharer joins — so with two or
	// more other sharers every copy is already Shared (or the dirty owner,
	// handled on the supply path) and the probes can be skipped.
	m := e.L1Sharers &^ (1 << uint(c))
	if m == 0 || m&(m-1) != 0 {
		return
	}
	o := bits.TrailingZeros64(m)
	if w, ok := s.l1[o].Probe(addr); ok && s.l1[o].State(w) == cache.Exclusive {
		s.l1[o].SetState(w, cache.Shared)
	}
	if w, ok := s.l0[o].Probe(addr); ok && s.l0[o].State(w) == cache.Exclusive {
		s.l0[o].SetState(w, cache.Shared)
	}
}

// fillL0 installs a line into core c's L0 (evictions are silent: L0 is a
// strict subset of L1 and carries no unique state). InsertIfAbsent folds
// the old Probe-then-Insert pair into one set scan.
func (s *System) fillL0(c int, addr sim.Addr, st cache.State, vtag uint8) {
	s.l0[c].InsertIfAbsent(addr, st, vtag)
}

// fillL1 installs a line into core c's L1, folding a dirty victim into
// the group bank and keeping the directory in sync.
func (s *System) fillL1(c int, addr sim.Addr, st cache.State, vtag uint8) {
	victim, evicted, _ := s.l1[c].Insert(addr, st, vtag)
	if !evicted {
		return
	}
	s.evictPrivateVictim(c, victim)
	// Maintain the L0 subset property: the victim cannot stay in L0.
	s.l0[c].Invalidate(victim.Tag)
}

// evictPrivateVictim handles an L1 eviction: dirty lines fold into the
// group's bank; the directory drops the private sharer.
func (s *System) evictPrivateVictim(c int, victim cache.Line) {
	g := s.groupOf(c)
	// Probe, mutate, and release through one slot handle: this runs once
	// per L1 eviction (the steady-state common case), and the fused walk
	// halves its directory hashing. Nothing between the probe and the
	// release touches the table, so the slot index stays valid.
	si, ok := s.dir.ProbeSlot(victim.Tag)
	if !ok {
		return
	}
	e := s.dir.EntryAt(si)
	if victim.State == cache.Modified {
		if bw, okb := s.banks[g].Probe(victim.Tag); okb {
			s.banks[g].SetState(bw, cache.Modified)
			e.L2Owner = int8(g)
		}
		if e.L1Owner == int8(c) {
			e.L1Owner = -1
		}
	}
	e.DropL1(c)
	s.dir.ReleaseSlot(si)
}

// evictBankLineTM handles an LLC bank eviction: back-invalidate private
// copies in the group (inclusion), write back dirty data, update the
// directory.
func evictBankLineTM(s *System, tm timing, g int, victim cache.Line) {
	addr := victim.Tag
	dirty := victim.State.Dirty()
	si, ok := s.dir.ProbeSlot(addr)
	if ok {
		e := s.dir.EntryAt(si)
		for o := g * s.cfg.GroupSize; o < (g+1)*s.cfg.GroupSize; o++ {
			if !e.HasL1(o) {
				continue
			}
			if e.L1Owner == int8(o) {
				dirty = true
			}
			s.dropPrivate(o, addr, e)
			s.backInvals++
		}
		e.DropL2(g)
	}
	if dirty {
		tm.writeback(s, s.now, addr)
	}
	if ok {
		s.dir.ReleaseSlot(si)
	}
}

// dropPrivate removes core o's L0/L1 copies of addr and clears its
// presence in e, the line's directory entry (every caller already holds
// it, so re-probing here would only repeat their hash walk).
func (s *System) dropPrivate(o int, addr sim.Addr, e *coherence.Entry) {
	s.l0[o].Invalidate(addr)
	s.l1[o].Invalidate(addr)
	e.DropL1(o)
}

// downgradeOwner services a read of a line core o holds dirty: o keeps a
// Shared copy, the dirty data folds into o's group bank, which becomes
// the line's owner.
func (s *System) downgradeOwner(o int, addr sim.Addr, e *coherence.Entry) {
	if w, ok := s.l1[o].Probe(addr); ok {
		s.l1[o].SetState(w, cache.Shared)
	}
	if w, ok := s.l0[o].Probe(addr); ok {
		s.l0[o].SetState(w, cache.Shared)
	}
	og := s.groupOf(o)
	if bw, ok := s.banks[og].Probe(addr); ok {
		s.banks[og].SetState(bw, cache.Modified)
		e.L2Owner = int8(og)
	}
	if e.L1Owner == int8(o) {
		e.L1Owner = -1
	}
}
