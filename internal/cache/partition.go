package cache

// Way partitioning implements the cache-QoS mechanism of the paper's
// related work (§VI: Kim/Suh fair sharing, Iyer CQoS) and its conclusion
// that consolidation "should feasibly extend from functional isolation
// into performance isolation": each VM is limited to a quota of ways per
// set, so one workload cannot evict a co-runner's entire allocation.
//
// Victim selection under a partition:
//
//  1. if the inserting VM holds at least its quota of ways in the set,
//     evict the VM's own LRU line (it lives within its allocation);
//  2. otherwise evict the LRU line of any VM holding more than its quota
//     (reclaiming over-occupancy);
//  3. otherwise fall back to global LRU (free or unclaimed capacity).

// SetPartition installs per-VM way quotas; quota[vm] is the maximum ways
// per set for that VM ID. A nil slice removes the partition; VMs beyond
// the slice are unconstrained. Quotas below 1 are treated as 1.
func (c *Cache) SetPartition(quota []int) {
	if quota == nil {
		c.quota = nil
		return
	}
	q := make([]int, len(quota))
	for i, v := range quota {
		if v < 1 {
			v = 1
		}
		q[i] = v
	}
	c.quota = q
}

// Partitioned reports whether a way partition is active.
func (c *Cache) Partitioned() bool { return c.quota != nil }

// quotaOf returns vm's way quota, or the full associativity when
// unconstrained.
func (c *Cache) quotaOf(vm uint8) int {
	if c.quota == nil || int(vm) >= len(c.quota) {
		return c.cfg.Assoc
	}
	return c.quota[vm]
}

// partitionVictim picks the way of the full set s to evict for an
// insertion by vm, honoring quotas. The set is in recency order, so each
// rule's LRU line is the deepest way the rule admits.
func (c *Cache) partitionVictim(s []uint64, vm uint8) int {
	var counts [MaxVMs]int
	for _, v := range s {
		counts[uint8(v>>vmShift)]++
	}
	atQuota := counts[vm] >= c.quotaOf(vm)
	over := -1
	for i := len(s) - 1; i >= 0; i-- {
		owner := uint8(s[i] >> vmShift)
		if atQuota && owner == vm {
			return i
		}
		if over < 0 && counts[owner] > c.quotaOf(owner) {
			over = i
		}
	}
	if over >= 0 {
		return over
	}
	return len(s) - 1
}
