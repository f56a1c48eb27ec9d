package coherence

import (
	"math/bits"
	"testing"

	"consim/internal/sim"
)

// diffOps drives the flat Directory and the map-backed RefDirectory with
// an identical randomized stream of add/drop/evict/snapshot operations
// and asserts they agree at every step. Operations are constructed so the
// protocol invariants stay valid (owners are always sharers), matching
// how internal/core drives the directory.
func diffOps(t *testing.T, nodes int, ops int, seed uint64) {
	t.Helper()
	flat := NewDirectory(nodes)
	ref := NewRefDirectory(nodes)
	rng := sim.NewRNG(seed)

	// Block pool large enough to force several table growths past the
	// 64Ki initial capacity and dense enough to build probe clusters.
	const poolBits = 18
	addrOf := func() sim.Addr {
		return sim.Addr(rng.Uint64n(1<<poolBits)) << sim.LineShift
	}

	for op := 0; op < ops; op++ {
		addr := addrOf()
		switch rng.Intn(10) {
		case 0, 1, 2: // private fill, sometimes taking ownership
			c := rng.Intn(nodes)
			fe, re := flat.Get(addr), ref.Get(addr)
			fe.AddL1(c)
			re.AddL1(c)
			if rng.Bool(0.3) {
				fe.L1Owner = int8(c)
				re.L1Owner = int8(c)
			}
		case 3, 4, 5: // LLC fill, sometimes dirty
			b := rng.Intn(nodes)
			fe, re := flat.Get(addr), ref.Get(addr)
			fe.AddL2(b)
			re.AddL2(b)
			if rng.Bool(0.3) {
				fe.L2Owner = int8(b)
				re.L2Owner = int8(b)
			}
		case 6: // private drop + release
			c := rng.Intn(nodes)
			if fe, ok := flat.Probe(addr); ok {
				fe.DropL1(c)
			}
			if re, ok := ref.Probe(addr); ok {
				re.DropL1(c)
			}
			flat.Release(addr)
			ref.Release(addr)
		case 7: // bank drop + release
			b := rng.Intn(nodes)
			if fe, ok := flat.Probe(addr); ok {
				fe.DropL2(b)
			}
			if re, ok := ref.Probe(addr); ok {
				re.DropL2(b)
			}
			flat.Release(addr)
			ref.Release(addr)
		case 8: // full evict: clear every sharer, then release
			if fe, ok := flat.Probe(addr); ok {
				for m := fe.L1Sharers; m != 0; m &= m - 1 {
					fe.DropL1(bits.TrailingZeros64(m))
				}
				for m := fe.L2Sharers; m != 0; m &= m - 1 {
					fe.DropL2(bits.TrailingZeros64(m))
				}
			}
			if re, ok := ref.Probe(addr); ok {
				for m := re.L1Sharers; m != 0; m &= m - 1 {
					re.DropL1(bits.TrailingZeros64(m))
				}
				for m := re.L2Sharers; m != 0; m &= m - 1 {
					re.DropL2(bits.TrailingZeros64(m))
				}
			}
			flat.Release(addr)
			ref.Release(addr)
		case 9: // probe parity on a random address
			fe, fok := flat.Probe(addr)
			re, rok := ref.Probe(addr)
			if fok != rok {
				t.Fatalf("op %d: Probe(%#x) presence: flat=%v ref=%v", op, addr, fok, rok)
			}
			if fok && !sameState(fe, re) {
				t.Fatalf("op %d: Probe(%#x) entry: flat=%+v ref=%+v", op, addr, *fe, *re)
			}
		}

		if flat.Len() != ref.Len() {
			t.Fatalf("op %d: Len: flat=%d ref=%d", op, flat.Len(), ref.Len())
		}
		if op%4096 == 0 {
			fr, fp := flat.ReplicationSnapshot()
			rr, rp := ref.ReplicationSnapshot()
			if fr != rr || fp != rp {
				t.Fatalf("op %d: snapshot: flat=(%d,%d) ref=(%d,%d)", op, fr, fp, rr, rp)
			}
			if ferr, rerr := flat.CheckInvariants(), ref.CheckInvariants(); (ferr == nil) != (rerr == nil) {
				t.Fatalf("op %d: invariants: flat=%v ref=%v", op, ferr, rerr)
			}
		}
	}

	checkParity(t, flat, ref)
}

// sameState reports whether two entries record the same sharers and
// owners; a table entry's tag is the table's, which the reference
// directory's entries do not carry.
func sameState(a, b *Entry) bool {
	x, y := *a, *b
	x.tag, y.tag = 0, 0
	return x == y
}

// checkParity sweeps the whole of both directories: every reference entry
// must exist in the flat table with identical state, and the counts,
// snapshots, invariants and lookup counters must match (no extras).
func checkParity(t *testing.T, flat *Directory, ref *RefDirectory) {
	t.Helper()
	if flat.Len() != ref.Len() {
		t.Fatalf("final Len: flat=%d ref=%d", flat.Len(), ref.Len())
	}
	for b, re := range ref.entries {
		fe, ok := flat.Probe(sim.Addr(b) << sim.LineShift)
		if !ok {
			t.Fatalf("block %#x in ref but not in flat", b)
		}
		if !sameState(fe, re) {
			t.Fatalf("block %#x: flat=%+v ref=%+v", b, *fe, *re)
		}
	}
	fr, fp := flat.ReplicationSnapshot()
	rr, rp := ref.ReplicationSnapshot()
	if fr != rr || fp != rp {
		t.Fatalf("final snapshot: flat=(%d,%d) ref=(%d,%d)", fr, fp, rr, rp)
	}
	if err := flat.CheckInvariants(); err != nil {
		t.Fatalf("flat invariants: %v", err)
	}
	if err := ref.CheckInvariants(); err != nil {
		t.Fatalf("ref invariants: %v", err)
	}
	if flat.Lookups != ref.Lookups {
		t.Fatalf("Lookups: flat=%d ref=%d", flat.Lookups, ref.Lookups)
	}
}

func TestDirectoryDifferential16Nodes(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	diffOps(t, 16, n, 0xD1FF16)
}

func TestDirectoryDifferential64Nodes(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	diffOps(t, 64, n, 0xD1FF64)
}

// TestDirectoryGrowth fills far past the initial capacity and verifies
// every entry survives the rehashes intact.
func TestDirectoryGrowth(t *testing.T) {
	d := NewDirectory(16)
	const n = 200_000 // > 2 doublings past the 64Ki initial table
	for i := 0; i < n; i++ {
		e := d.Get(sim.Addr(i) << sim.LineShift)
		e.AddL2(i % 16)
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for i := 0; i < n; i++ {
		e, ok := d.Probe(sim.Addr(i) << sim.LineShift)
		if !ok || !e.HasL2(i%16) {
			t.Fatalf("entry %d lost after growth (ok=%v)", i, ok)
		}
	}
	res, repl := d.ReplicationSnapshot()
	if res != n || repl != 0 {
		t.Fatalf("snapshot = (%d,%d), want (%d,0)", res, repl, n)
	}
}

// TestDirectoryBackwardShift deletes from the middle of dense probe
// clusters and verifies every remaining key is still reachable — the
// property backward-shift deletion must preserve without tombstones.
func TestDirectoryBackwardShift(t *testing.T) {
	d := NewDirectory(16)
	rng := sim.NewRNG(42)
	live := map[uint64]bool{}
	for i := 0; i < 50_000; i++ {
		b := rng.Uint64n(1 << 14) // dense: long shared clusters
		addr := sim.Addr(b) << sim.LineShift
		if live[b] && rng.Bool(0.5) {
			e, ok := d.Probe(addr)
			if !ok {
				t.Fatalf("live block %#x not found", b)
			}
			e.DropL2(0)
			d.Release(addr)
			delete(live, b)
		} else {
			d.Get(addr).AddL2(0)
			live[b] = true
		}
	}
	if d.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(live))
	}
	for b := range live {
		if _, ok := d.Probe(sim.Addr(b) << sim.LineShift); !ok {
			t.Fatalf("block %#x unreachable after deletions", b)
		}
	}
}

// TestDirectoryReleaseKeepsOnChip mirrors the reference semantics:
// Release of a line still held anywhere is a no-op.
func TestDirectoryReleaseKeepsOnChip(t *testing.T) {
	d := NewDirectory(4)
	e := d.Get(0x1000)
	e.AddL1(2)
	d.Release(0x1000)
	if _, ok := d.Probe(0x1000); !ok {
		t.Fatal("Release dropped an L1-resident line")
	}
	e, _ = d.Probe(0x1000)
	e.DropL1(2)
	d.Release(0x1000)
	if _, ok := d.Probe(0x1000); ok {
		t.Fatal("Release kept an off-chip line")
	}
	// Releasing an untracked line is a no-op, not a fault.
	d.Release(0xDEAD000)
}

// TestDirectorySteadyStateAllocs asserts the hot Get/mutate/Release cycle
// allocates nothing once the table exists — the property that removes the
// directory from the simulator's GC profile.
func TestDirectorySteadyStateAllocs(t *testing.T) {
	d := NewDirectory(16)
	i := uint64(0)
	allocs := testing.AllocsPerRun(10_000, func() {
		addr := sim.Addr(i%50_000) << sim.LineShift
		i++
		e := d.Get(addr)
		e.AddL2(int(i % 16))
		e.DropL2(int(i % 16))
		d.Release(addr)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Release allocates %.1f objects per op, want 0", allocs)
	}
}
