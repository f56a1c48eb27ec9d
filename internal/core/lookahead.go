package core

// Host memory-level parallelism for the reference walk.
//
// At paper scale the simulated machine's metadata — an 8.0 MB directory
// table, 2 MB of LLC bank tags, the directory-cache tags, the footprint
// bitmaps — lives in host DRAM, and a private miss reaches it
// through a chain of dependent loads: the line's directory bucket, the
// L1 victim's bucket, the bank victim's bucket, each address known only
// after an unpredictable tag compare. The host's out-of-order window
// cannot overlap them; a profile of the 4-VM mix showed 42% of all CPU
// in those stalls.
//
// The cure is to know each address early, and to ask for it with a hint
// that never stalls. Two places know one:
//
//   - A core's next reference already sits in its generator ring when
//     the current one finishes, and the core will not issue it until
//     every other core has had a turn — microseconds of host time.
//     prefetchRef spends a few nanoseconds of that turn hinting the lines
//     whose addresses follow from the reference alone: its footprint
//     bitmap word, its directory bucket, its bank set and its home
//     node's directory-cache set. It does not predict hits or victims:
//     that took demand loads of its own (the L1 and bank tag probes),
//     the very stalls it exists to hide.
//   - A victim is known inside the walk itself, from a set the demand
//     access has just scanned: the L1 victim when fetchTM starts, the
//     bank victim right after the bank misses. fetchTM hints their
//     buckets there, ahead of the directory, mesh and memory work that
//     runs before the evictions reach them.
//
// Both engines that walk references one core at a time call prefetchRef:
// the detailed event loop (runSequential) after pushing a core's next
// event, and the fast-forward warming loop (warmLoop) after drawing a
// context's reference. Only the directory table's 2 MB-aligned interior
// is advised onto huge pages (Directory.resize), and the table starts
// wherever the allocator puts it: a hint into the interior rarely pays a
// page walk first, one into the unaligned ends may.

// lookaheadMinBlocks gates the lookahead on total modeled footprint:
// below it the walked structures fit the host cache hierarchy, the
// hinted lines are already there and the peek and hints only cost (0-8%
// measured at scale 16 and on the isolated TPC-H cells, when the
// lookahead still probed); above it they live in host DRAM and hiding
// their miss latency pays for the hints many times over. The threshold
// corresponds to a few tens of MB of simulated metadata — around where a
// contemporary host's private cache levels give out.
const lookaheadMinBlocks = 2 << 20

// footprintBlocks sums the VMs' block address spaces.
func (s *System) footprintBlocks() uint64 {
	var fp uint64
	for _, m := range s.vms {
		fp += m.Gen.FootprintBlocks()
	}
	return fp
}

// prefetchRef starts the host-memory loads of the lines core c's coming
// reference to block (on behalf of vmID) reads whatever it hits or
// misses: once the private levels miss, fetchTM reads the line's
// directory entry and its group's bank set, and on a bank miss the home
// node's directory-cache set.
//
// Nothing simulation-visible moves: the Prefetch* calls are hint
// instructions. Placement is static and a timeslice rotation is decided
// before the hint, so the reference is the one core c issues next unless
// the phase ends first; an unused hint only wastes the prefetched lines.
func (s *System) prefetchRef(c, vmID int, block uint64) {
	m := s.vms[vmID]
	m.PrefetchTouch(block)
	addr := m.AddrOf(block)
	s.dir.PrefetchProbe(addr)
	s.banks[s.groupOf(c)].PrefetchSet(addr)
	s.dirCache.PrefetchSet(s.dir.Home(addr), addr)
}
