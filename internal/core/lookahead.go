package core

import "consim/internal/workload"

// Host memory-level parallelism for the reference walk.
//
// At paper scale the simulated machine's metadata — a 16 MB directory
// table, 2 MB of LLC bank tags, the directory-cache tags, the footprint
// bitmaps — lives in host DRAM, and a private miss reaches it
// through a chain of dependent loads: the line's directory bucket, the
// L1 victim's bucket, the bank victim's bucket, each address known only
// after an unpredictable tag compare. The host's out-of-order window
// cannot overlap them; a profile of the 4-VM mix showed 42% of all CPU
// in those stalls.
//
// The cure is to know the address early. A core's next reference already
// sits in its generator ring when the current one finishes, and the core
// will not issue it until every other core has had a turn — microseconds
// of host time. prefetchRef spends a few nanoseconds of that turn walking
// the reference's probable miss cascade read-only and issuing prefetch
// hints (internal/prefetch) for exactly the lines the demand walk will
// touch, so they arrive while the other cores' references execute.
//
// Both engines that walk references one core at a time call it: the
// detailed event loop (runSequential) after pushing a core's next event,
// and the fast-forward warming loop (warmLoop) after drawing a context's
// reference.

// lookaheadMinBlocks gates the lookahead on total modeled footprint:
// below it the walked structures fit the host cache hierarchy and the
// extra probes only cost (0-8% measured at scale 16 and on the isolated
// TPC-H cells); above it they live in host DRAM and hiding their miss
// latency pays for the probes many times over. The threshold corresponds
// to a few tens of MB of simulated metadata — around where a contemporary
// host's private cache levels give out.
const lookaheadMinBlocks = 2 << 20

// footprintBlocks sums the VMs' block address spaces.
func (s *System) footprintBlocks() uint64 {
	var fp uint64
	for _, m := range s.vms {
		fp += m.Gen.FootprintBlocks()
	}
	return fp
}

// peekRef returns the reference run's thread will issue next without
// consuming it, or false when that is not known yet: the generator's ring
// is drained, or the source is a trace replay, which has no ring to read.
func (s *System) peekRef(run runnable) (workload.Access, bool) {
	if g, ok := s.vms[run.vmID].Gen.(*workload.Generator); ok {
		return g.Peek(run.thread)
	}
	return workload.Access{}, false
}

// prefetchRef starts the host-memory loads that core c's coming
// reference to block (on behalf of vmID) will probably need. It follows
// the demand walk's own hit cascade read-only, so each predicted hit
// prunes the deeper loads and each predicted miss names precisely the
// lines the fill will touch — including the two eviction victims'
// directory buckets, which the demand path cannot overlap with anything
// because a victim is only known mid-fill.
//
// Nothing simulation-visible moves: Probe and PeekVictimTag touch neither
// recency order nor counters, and the Prefetch* calls are hint
// instructions. Predictions may be stale by the time the reference
// issues (a rebalance or timeslice rotation put another thread on the
// core, an intervening access invalidated or refilled a set); that only
// wastes a prefetched line.
func (s *System) prefetchRef(c, vmID int, block uint64) {
	m := s.vms[vmID]
	m.PrefetchTouch(block)
	addr := m.AddrOf(block)
	if _, hit := s.l0[c].Probe(addr); hit {
		return
	}
	l1 := s.l1[c]
	if _, hit := l1.Probe(addr); hit {
		return
	}
	// Private miss: fetchTM reads the line's directory entry whatever
	// the bank says, and fillL1's victim leaves through its own bucket
	// (evictPrivateVictim) — the walk's single hottest stall.
	vtag := uint8(vmID)
	s.dir.PrefetchProbe(addr)
	if vt, ok := l1.PeekVictimTag(addr, vtag); ok {
		s.dir.PrefetchProbe(vt)
	}
	bank := s.banks[s.groupOf(c)]
	if _, hit := bank.Probe(addr); hit {
		return
	}
	// LLC miss: the home node's directory cache is visited, and the
	// bank victim is back-invalidated through its bucket.
	s.dirCache.PrefetchSet(s.dir.Home(addr), addr)
	if vt, ok := bank.PeekVictimTag(addr, vtag); ok {
		s.dir.PrefetchProbe(vt)
	}
}
