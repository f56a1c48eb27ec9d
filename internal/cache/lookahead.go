// State-free peeks for the walk's host-memory hints (core/lookahead.go):
// PrefetchSet starts a set's load one core rotation ahead of its demand
// access, and PeekVictimTag names the line a coming insertion will evict,
// so its directory bucket can load before the eviction reaches it.
package cache

import (
	"consim/internal/prefetch"
	"consim/internal/sim"
)

// hostLineWays is how many 8-byte ways one 64-byte host cache line holds.
const hostLineWays = 8

// PrefetchSet starts the host loads of addr's set ahead of a coming
// Lookup or Insert: its first way and, for a set wider than one host
// line (a 16-way bank set is two), its last. It changes no state.
func (c *Cache) PrefetchSet(addr sim.Addr) {
	s, _ := c.set(blockOf(addr))
	prefetch.Line(&s[0])
	if len(s) > hostLineWays {
		prefetch.Line(&s[len(s)-1])
	}
}

// PeekVictimTag predicts, without changing any state, the line an
// insertion of addr by vm would evict right now (ok false: a way is
// free). A stale prediction only wastes the prefetched line.
func (c *Cache) PeekVictimTag(addr sim.Addr, vm uint8) (sim.Addr, bool) {
	s, _ := c.set(blockOf(addr))
	vi := len(s) - 1
	if slotTag(s[vi]) == invalidTag {
		return 0, false
	}
	if c.quota != nil {
		vi = c.partitionVictim(s, vm)
	}
	return slotLine(s[vi]).Tag, true
}
