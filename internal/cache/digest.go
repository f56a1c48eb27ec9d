package cache

// MixDigest folds v into the running FNV-1a-style digest h. Shared by
// the cache, coherence and core state digests the warm-walk differential
// test compares (warming must leave bit-identical state, so a cheap
// order-sensitive fold is enough — no cryptographic strength needed).
func MixDigest(h, v uint64) uint64 {
	h ^= v
	return h * 1099511628211
}

// DigestSeed is the conventional starting value for a state digest (the
// FNV-1a offset basis).
const DigestSeed = 14695981039346656037

// StateDigest folds the cache's complete observable state into h: every
// way's packed tag, VM and coherence state in slot order — which is
// recency order, so the LRU state is in there too — and the access
// counters. Two caches that processed the same operation sequence digest
// identically; any divergence in replacement order, contents or
// accounting changes the digest.
func (c *Cache) StateDigest(h uint64) uint64 {
	for _, v := range c.slots {
		h = MixDigest(h, v)
	}
	h = MixDigest(h, c.Accesses)
	h = MixDigest(h, c.Hits)
	h = MixDigest(h, c.Misses)
	h = MixDigest(h, c.Evictions)
	return h
}
