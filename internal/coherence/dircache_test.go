package coherence

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"testing"

	"consim/internal/cache"
	"consim/internal/sim"
)

// refDirCache is the directory cache as first built: one cache.New per
// node with the configured entries, indexed and tagged by the raw block
// number. Node h sees only blocks ≡ h (mod nodes), so it touches only the
// sets whose low TrailingZeros(nodes) bits are h's; DirCache allocates
// just those, and must answer exactly as this does.
type refDirCache struct {
	per          []*cache.Cache
	hits, misses uint64
}

func newRefDirCache(nodes int, cfg DirCacheConfig) *refDirCache {
	r := &refDirCache{per: make([]*cache.Cache, nodes)}
	for i := range r.per {
		r.per[i] = cache.New(cache.Config{SizeBytes: cfg.Entries * sim.LineBytes, Assoc: cfg.Assoc})
	}
	return r
}

func (r *refDirCache) access(home int, addr sim.Addr) bool {
	c := r.per[home]
	if _, ok := c.Lookup(addr); ok {
		r.hits++
		return true
	}
	r.misses++
	c.Insert(addr, cache.Shared, 0)
	return false
}

func (r *refDirCache) peek(home int, addr sim.Addr) bool {
	_, ok := r.per[home].Probe(addr)
	return ok
}

// reachableLines is the line capacity a node of a DirCache really has:
// Assoc ways in each of the max(1, sets>>k) sets it can index. A fidelity
// change that lets a node use all its configured entries has to change
// this on purpose.
func reachableLines(nodes int, cfg DirCacheConfig) int {
	return cfg.Assoc * max(1, (cfg.Entries/cfg.Assoc)>>bits.TrailingZeros(uint(nodes)))
}

// dirCacheOp is one step of a differential run: an Access, or a Peek.
type dirCacheOp struct {
	block uint64
	peek  bool
}

// maxTagBlock is the largest block number a cache array can tag.
const maxTagBlock = 1<<32 - 2

// dirCachePair is a DirCache and the reference, fed the same operations
// with homes from a directory of the same node count.
type dirCachePair struct {
	d   *Directory
	dc  *DirCache
	ref *refDirCache
}

func newDirCachePair(nodes int, cfg DirCacheConfig) *dirCachePair {
	return &dirCachePair{d: NewDirectory(nodes), dc: NewDirCache(nodes, cfg), ref: newRefDirCache(nodes, cfg)}
}

// run applies ops as Access(Home(a), a) or Peek(Home(a), a) to both
// sides and fails on the first answer that differs, then on differing
// Hits/Misses.
func (p *dirCachePair) run(t testing.TB, ops []dirCacheOp) {
	t.Helper()
	for i, op := range ops {
		a := sim.Addr(op.block) << sim.LineShift
		h := p.d.Home(a)
		var got, want bool
		if op.peek {
			got, want = p.dc.Peek(h, a), p.ref.peek(h, a)
		} else {
			got, want = p.dc.Access(h, a), p.ref.access(h, a)
		}
		if got != want {
			t.Fatalf("op %d (block %#x, home %d, peek %v): DirCache %v, reference %v", i, op.block, h, op.peek, got, want)
		}
	}
	if p.dc.Hits != p.ref.hits || p.dc.Misses != p.ref.misses {
		t.Fatalf("hits/misses %d/%d, reference %d/%d", p.dc.Hits, p.dc.Misses, p.ref.hits, p.ref.misses)
	}
}

// randomDirCacheOps draws n operations, one in eight a Peek, over two
// windows of span blocks — one from block 0 up, one down from the largest
// taggable block — with half the draws from the first eighth of a window.
func randomDirCacheOps(rng *sim.RNG, n int, span uint64) []dirCacheOp {
	ops := make([]dirCacheOp, n)
	for i := range ops {
		b := rng.Uint64n(span)
		if rng.Uint64n(2) == 0 {
			b %= span/8 + 1
		}
		if rng.Uint64n(2) == 0 {
			b = maxTagBlock - b
		}
		ops[i] = dirCacheOp{block: b, peek: rng.Uint64n(8) == 0}
	}
	return ops
}

// dirCacheCases is the test matrix: node counts with k = 0 (1, 3), small
// and large powers of two, and an even non-power of two (12, k = 2),
// against entry counts that leave fewer sets than nodes, as many, and more.
var dirCacheCases = func() (cs []struct{ nodes, entries int }) {
	for _, nodes := range []int{1, 2, 3, 4, 12, 16, 64} {
		for _, entries := range []int{8, 64, 2048, 32768} {
			cs = append(cs, struct{ nodes, entries int }{nodes, entries})
		}
	}
	return cs
}()

// TestDirCacheMatchesPerNodeFullSets: the compact per-node caches give
// every Access and Peek answer, and the Hits/Misses, of full-size caches
// indexed by the raw block number; and under saturating traffic each node
// holds exactly reachableLines lines in both, all of what DirCache
// allocates.
func TestDirCacheMatchesPerNodeFullSets(t *testing.T) {
	for i, tc := range dirCacheCases {
		cfg := DirCacheConfig{Entries: tc.entries, Assoc: 8}
		t.Run(fmt.Sprintf("nodes%d/entries%d", tc.nodes, tc.entries), func(t *testing.T) {
			reach := reachableLines(tc.nodes, cfg)
			p := newDirCachePair(tc.nodes, cfg)
			p.run(t, randomDirCacheOps(sim.NewRNG(uint64(i)+1), 100_000, uint64(4*tc.nodes*reach)))
			if p.dc.Hits == 0 || p.dc.Misses == 0 {
				t.Fatalf("stream exercised one outcome only: %d hits, %d misses", p.dc.Hits, p.dc.Misses)
			}

			// Node h's blocks h + nodes·j map to sets (h>>k + m·j) mod
			// sets', m = nodes>>k odd, so 2·reach consecutive j give every
			// reachable set 2·Assoc distinct lines.
			var sat []dirCacheOp
			for j := 0; j < 2*reach; j++ {
				for h := 0; h < tc.nodes; h++ {
					sat = append(sat, dirCacheOp{block: uint64(h + tc.nodes*j)})
				}
			}
			p.run(t, sat)
			for h := 0; h < tc.nodes; h++ {
				got, want, alloc := p.dc.per[h].Resident(), p.ref.per[h].Resident(), p.dc.per[h].Lines()
				if got != reach || want != reach || alloc != reach {
					t.Fatalf("node %d holds %d lines (reference %d) in %d allocated, want %d = 8·max(1, sets>>k) of %d configured",
						h, got, want, alloc, reach, tc.entries)
				}
			}
		})
	}
}

// encodeDirCacheOps is FuzzDirCacheOps' input format: five bytes per
// operation, the block as a little-endian uint32 then a flag byte whose
// low bit selects Peek.
func encodeDirCacheOps(ops []dirCacheOp) []byte {
	b := make([]byte, 0, 5*len(ops))
	for _, op := range ops {
		b = binary.LittleEndian.AppendUint32(b, uint32(op.block))
		var fl byte
		if op.peek {
			fl = 1
		}
		b = append(b, fl)
	}
	return b
}

func decodeDirCacheOps(data []byte) []dirCacheOp {
	ops := make([]dirCacheOp, len(data)/5)
	for i := range ops {
		r := data[5*i:]
		ops[i] = dirCacheOp{
			block: uint64(binary.LittleEndian.Uint32(r)) % (maxTagBlock + 1),
			peek:  r[4]&1 != 0,
		}
	}
	return ops
}

// FuzzDirCacheOps: any node count, power-of-two geometry and operation
// stream gives the reference's answers and counts, and no node ever holds
// more than reachableLines. Seeded with the first 2000 operations of the
// equivalence test's streams.
func FuzzDirCacheOps(f *testing.F) {
	for i, tc := range dirCacheCases {
		if tc.entries > 2048 {
			continue
		}
		cfg := DirCacheConfig{Entries: tc.entries, Assoc: 8}
		ops := randomDirCacheOps(sim.NewRNG(uint64(i)+1), 2000, uint64(4*tc.nodes*reachableLines(tc.nodes, cfg)))
		f.Add(uint8(tc.nodes-1), uint8(bits.TrailingZeros(uint(tc.entries/8))), uint8(3), encodeDirCacheOps(ops))
	}
	f.Fuzz(func(t *testing.T, nodes, setsLog, assocLog uint8, data []byte) {
		n := 1 + int(nodes)%MaxNodes
		assoc := 1 << (assocLog % 4)
		cfg := DirCacheConfig{Entries: assoc << (setsLog % 10), Assoc: assoc}
		p := newDirCachePair(n, cfg)
		p.run(t, decodeDirCacheOps(data))
		for h, c := range p.dc.per {
			if c.Resident() > reachableLines(n, cfg) {
				t.Fatalf("node %d holds %d lines, more than the %d it can reach", h, c.Resident(), reachableLines(n, cfg))
			}
		}
	})
}
