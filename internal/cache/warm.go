// Read-only set peeks for the warming walk's lookahead prefetch
// (core/warm.go): they start the host-memory loads a demand access one
// context rotation later would otherwise serialize.
package cache

import "consim/internal/sim"

// PrefetchSet touches addr's set without changing any state: reading the
// set's first and last ways pulls the scan's host cache lines in ahead of
// the demand Lookup. It returns the bits read so callers can fold them
// into a sink and keep the loads live.
func (c *Cache) PrefetchSet(addr sim.Addr) uint64 {
	s, _ := c.set(blockOf(addr))
	return s[0] + s[len(s)-1]
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
