package coherence

import (
	"testing"

	"consim/internal/cache"
	"consim/internal/sim"
)

// paperScaleDirectory builds the 4-VM mix's paper-scale directory — a
// table bounded at 262 144 lines (16 MB of LLC), 349 527 home buckets
// (8.0 MB) — fills it to the population that run ends with, 233 604
// lines (2/3 load), and returns the tracked addresses in a shuffled
// order no hardware prefetcher can follow.
func paperScaleDirectory(tb testing.TB) (*Directory, []sim.Addr) {
	tb.Helper()
	const bound, lines = 262_144, 233_604
	d := NewDirectoryFor(16, bound)
	addrs := make([]sim.Addr, lines)
	for i := range addrs {
		addrs[i] = sim.Addr(i) << sim.LineShift
		d.Get(addrs[i]).AddL2(i % 16)
	}
	if d.Cap() != dirCap(bound) {
		tb.Fatalf("table has %d home buckets, want dirCap(%d) = %d", d.Cap(), bound, dirCap(bound))
	}
	rng := sim.NewRNG(7)
	for i := len(addrs) - 1; i > 0; i-- {
		j := rng.Uint64n(uint64(i + 1))
		addrs[i], addrs[j] = addrs[j], addrs[i]
	}
	return d, addrs
}

// TestPrefetchIsInert: the prefetch entry points (PrefetchProbe,
// PrefetchRelease, PrefetchSet) are hints, so tracked, untracked and
// colliding addresses alike — and a release hint on the last home
// bucket, whose third line lies in the tail — leave the directory (table
// layout, entries, live count, Lookups) and the directory caches (tags,
// recency, hit/miss counts) exactly as they were.
func TestPrefetchIsInert(t *testing.T) {
	d, addrs := paperScaleDirectory(t)
	dc := NewDirCache(16, DirCacheConfig{Entries: 1024, Assoc: 8})
	for _, a := range addrs[:5000] {
		dc.Access(d.Home(a), a)
	}
	before := dc.StateDigest(d.StateDigest(cache.DigestSeed))
	for i, a := range addrs[:20_000] {
		d.PrefetchProbe(a)
		d.PrefetchProbe(a + sim.Addr(len(addrs))<<sim.LineShift) // untracked
		d.PrefetchRelease(a)
		d.PrefetchRelease(a + sim.Addr(len(addrs))<<sim.LineShift)
		dc.PrefetchSet(i%16, a)
	}
	// The last home bucket's release hint reaches into the tail.
	b := uint64(len(addrs))
	for d.idx(b) != d.buckets-1 {
		b++
	}
	d.PrefetchRelease(sim.Addr(b) << sim.LineShift)
	if after := dc.StateDigest(d.StateDigest(cache.DigestSeed)); after != before {
		t.Fatalf("prefetching changed state: digest %#x -> %#x", before, after)
	}
}

var probeSink int

// BenchmarkDirectoryProbe measures the mechanism the engines' lookahead
// rests on: a ProbeSlot of a table far larger than the host's private
// caches, demand-missing ("cold") against the same probe with
// PrefetchProbe issued 16 keys earlier ("prefetched") — roughly the
// distance one core rotation of the event loop provides. Each probe's
// key index depends on the entry the previous probe found, as the walk's
// next address depends on the state it just read, so the host cannot
// overlap the demand misses by itself.
func BenchmarkDirectoryProbe(b *testing.B) {
	const ahead = 16
	d, addrs := paperScaleDirectory(b)
	n := len(addrs)
	for _, pf := range []struct {
		name string
		on   bool
	}{{"cold", false}, {"prefetched", true}} {
		b.Run(pf.name, func(b *testing.B) {
			k := 0
			for i := 0; i < b.N; i++ {
				if pf.on {
					d.PrefetchProbe(addrs[(k+ahead)%n])
				}
				si, _ := d.ProbeSlot(addrs[k])
				// Sharer bits sit below bit 16, so this adds 1 — but only
				// once the bucket's line has arrived.
				k = (k + 1 + int(d.EntryAt(si).L2Sharers>>40)) % n
				probeSink += si
			}
		})
	}
}
