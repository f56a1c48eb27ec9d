package cache

import (
	"fmt"
	"testing"

	"consim/internal/sim"
)

func BenchmarkLookupHit(b *testing.B) {
	c := New(Config{SizeBytes: 1 << 20, Assoc: 16})
	for i := 0; i < 1024; i++ {
		c.Insert(sim.Addr(i*64), Shared, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(sim.Addr((i % 1024) * 64))
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	c := New(Config{SizeBytes: 1 << 20, Assoc: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(sim.Addr(uint64(i)*64 + 1<<30))
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := New(Config{SizeBytes: 64 << 10, Assoc: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Probe(sim.Addr(i * 64)); !ok {
			c.Insert(sim.Addr(i*64), Shared, 0)
		}
	}
}

// benchLines sizes the benchmark arrays past the host's L2 (16MB of
// slots), and benchStride visits sets in an order no hardware prefetcher
// follows, so each operation's first touch of its set misses the way a
// paper-scale simulation's does.
const (
	benchLines  = 2 << 20
	benchStride = 0x9e3779b1 // odd: a permutation of the sets per sweep
)

// BenchmarkLookupHitDepth times a hit at the set's MRU way, its middle
// and its LRU way. Each sweep visits every set once; cycling depth+1
// lines per set makes every visit hit exactly that deep in recency
// order (the classic LRU-stack cycle).
func BenchmarkLookupHitDepth(b *testing.B) {
	for _, assoc := range []int{2, 4, 16} {
		sets := benchLines / assoc
		for _, pos := range []struct {
			name  string
			depth int
		}{{"mru", 0}, {"mid", assoc / 2}, {"lru", assoc - 1}} {
			b.Run(fmt.Sprintf("ways=%d/%s", assoc, pos.name), func(b *testing.B) {
				c := New(Config{SizeBytes: benchLines * sim.LineBytes, Assoc: assoc})
				for way := 0; way < assoc; way++ {
					for s := 0; s < sets; s++ {
						// Fill deepest-first so line k sits at depth k.
						c.Insert(sim.Addr((assoc-1-way)*sets+s)<<sim.LineShift, Shared, 0)
					}
				}
				cycle := pos.depth + 1
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := i * benchStride & (sets - 1)
					k := pos.depth - i/sets%cycle
					if _, ok := c.Lookup(sim.Addr(k*sets+s) << sim.LineShift); !ok {
						b.Fatalf("miss at set %d line %d", s, k)
					}
				}
			})
		}
	}
}

// BenchmarkMissInsert is the fill path: a Lookup that misses, then an
// Insert that evicts the set's LRU line.
func BenchmarkMissInsert(b *testing.B) {
	for _, assoc := range []int{2, 4, 16} {
		b.Run(fmt.Sprintf("ways=%d", assoc), func(b *testing.B) {
			sets := benchLines / assoc
			c := New(Config{SizeBytes: benchLines * sim.LineBytes, Assoc: assoc})
			for l := 0; l < benchLines; l++ {
				c.Insert(sim.Addr(l)<<sim.LineShift, Shared, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := i * benchStride & (sets - 1)
				addr := sim.Addr((assoc+i/sets)*sets+s) << sim.LineShift
				if _, ok := c.Lookup(addr); ok {
					b.Fatalf("hit on a line never inserted (%#x)", addr)
				}
				if _, evicted, _ := c.Insert(addr, Shared, 0); !evicted {
					b.Fatalf("fill of a full set evicted nothing (%#x)", addr)
				}
			}
		})
	}
}
