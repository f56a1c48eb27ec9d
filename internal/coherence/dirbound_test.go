package coherence

import (
	"reflect"
	"testing"

	"consim/internal/cache"
	"consim/internal/prefetch"
	"consim/internal/sim"
)

// boundedOps drives flat and ref with an identical randomized stream of
// fills and full evictions that climbs to lines live entries after about
// 2·lines operations and never goes past them (new blocks are drawn from
// the whole key domain below cache.MaxLines, so probe clusters form from
// hashing alone). It returns the peak live count and checks after every
// operation that the flat table's capacity is dirCap(lines): the first
// operation, a fill, allocates the bound's table, and bounded traffic
// never regrows it.
func boundedOps(t *testing.T, flat *Directory, ref *RefDirectory, lines, ops int, seed uint64) (peak int) {
	t.Helper()
	rng := sim.NewRNG(seed)
	bound := dirCap(lines)
	var live []sim.Addr
	for op := 0; op < ops; op++ {
		if len(live) < lines && (len(live) == 0 || rng.Bool(0.75)) {
			addr := sim.Addr(rng.Uint64n(cache.MaxLines)) << sim.LineShift
			if _, ok := ref.Probe(addr); !ok {
				live = append(live, addr)
			}
			b := rng.Intn(flat.Nodes())
			fe, re := flat.Get(addr), ref.Get(addr)
			fe.AddL2(b)
			re.AddL2(b)
			if rng.Bool(0.3) {
				fe.L2Owner = int8(b)
				re.L2Owner = int8(b)
			}
		} else {
			k := rng.Intn(len(live))
			addr := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			fe, _ := flat.Probe(addr)
			re, _ := ref.Probe(addr)
			fe.Clear()
			re.Clear()
			flat.Release(addr)
			ref.Release(addr)
		}
		peak = max(peak, len(live))
		if flat.Len() != ref.Len() || flat.Len() != len(live) {
			t.Fatalf("op %d: Len: flat=%d ref=%d live=%d", op, flat.Len(), ref.Len(), len(live))
		}
		if c := flat.Cap(); c != bound {
			t.Fatalf("op %d: %d live of bound %d: capacity %d, want %d", op, len(live), lines, c, bound)
		}
	}
	checkParity(t, flat, ref)
	return peak
}

// TestDirectoryBoundHoldsCapacity: a directory sized for lines entries
// owns no table until its first fill, then dirCap(lines) slots under any
// traffic that stays within them — and it stays in parity with the
// map-backed oracle throughout.
func TestDirectoryBoundHoldsCapacity(t *testing.T) {
	for _, lines := range []int{1, 100, 1535, 16_384, 49_152, 65_536, 262_144} {
		if testing.Short() && lines > 65_536 {
			continue
		}
		flat, ref := NewDirectoryFor(16, lines), NewRefDirectory(16)
		if flat.Cap() != 0 {
			t.Fatalf("bound %d: %d slots before the first fill, want none", lines, flat.Cap())
		}
		peak := boundedOps(t, flat, ref, lines, max(4*lines, 1000), uint64(lines))
		t.Logf("bound %d: peak %d live, %d slots", lines, peak, flat.Cap())
	}
}

// fillDistinct Gets n new consecutive blocks from base into flat and ref.
func fillDistinct(flat *Directory, ref *RefDirectory, base, n int) {
	for i := base; i < base+n; i++ {
		addr := sim.Addr(i) << sim.LineShift
		flat.Get(addr).AddL2(i % 16)
		ref.Get(addr).AddL2(i % 16)
	}
}

// TestDirectoryPastBoundDoubles: the bound's capacity holds lines+1
// entries at its 3/4 load; the first entry past that load doubles the
// table, for a bound below and one above dirInitialSlots.
func TestDirectoryPastBoundDoubles(t *testing.T) {
	for _, size := range []int{2048, 1 << 17} {
		lines := size*3/4 - 1 // dirCap(lines) == size, exactly full at lines+1
		if dirCap(lines) != size {
			t.Fatalf("dirCap(%d) = %d, want %d", lines, dirCap(lines), size)
		}
		flat, ref := NewDirectoryFor(16, lines), NewRefDirectory(16)
		fillDistinct(flat, ref, 0, lines+1)
		if flat.Cap() != size {
			t.Fatalf("bound %d: %d live in %d slots, want %d", lines, lines+1, flat.Cap(), size)
		}
		fillDistinct(flat, ref, lines+1, 1)
		if flat.Cap() != 2*size {
			t.Fatalf("bound %d: one entry past the load left %d slots, want %d", lines, flat.Cap(), 2*size)
		}
		checkParity(t, flat, ref)
	}
}

// TestDirectoryFirstAllocation: a bounded directory owns no table before
// its first insert — construction allocates the Directory alone, and
// lookups, releases and walks of the empty directory find nothing — and
// that insert allocates exactly dirCap(lines) slots, which filling the
// bound never regrows. An unbounded directory starts at dirInitialSlots.
func TestDirectoryFirstAllocation(t *testing.T) {
	if got := NewDirectory(16).Cap(); got != dirInitialSlots {
		t.Errorf("NewDirectory: %d slots, want %d", got, dirInitialSlots)
	}
	for _, lines := range []int{1, 3, 1000, 49_151, 49_152, 262_144} {
		if n := testing.AllocsPerRun(5, func() { NewDirectoryFor(16, lines) }); n != 1 {
			t.Errorf("NewDirectoryFor(16, %d) made %v allocations, want 1 (no table)", lines, n)
		}
		d := NewDirectoryFor(16, lines)
		addr := sim.Addr(12345) << sim.LineShift
		d.PrefetchProbe(addr)
		d.PrefetchRelease(addr)
		d.Release(addr)
		if _, ok := d.Probe(addr); ok {
			t.Errorf("lines %d: empty directory finds a block", lines)
		}
		if _, ok := d.ProbeSlot(addr); ok {
			t.Errorf("lines %d: empty directory finds a slot", lines)
		}
		if r, rep := d.ReplicationSnapshot(); r != 0 || rep != 0 || d.Len() != 0 || d.CheckInvariants() != nil {
			t.Errorf("lines %d: empty directory walks to %d resident, %d replicated, %d live", lines, r, rep, d.Len())
		}
		if d.Cap() != 0 {
			t.Fatalf("lines %d: %d slots before the first insert, want none", lines, d.Cap())
		}
		for i := 0; i < lines; i++ {
			d.Get(sim.Addr(i) << sim.LineShift).AddL2(i % 16)
			if d.Cap() != dirCap(lines) {
				t.Fatalf("lines %d: %d slots after %d inserts, want %d", lines, d.Cap(), i+1, dirCap(lines))
			}
		}
		if err := d.CheckInvariants(); err != nil || d.Len() != lines {
			t.Fatalf("lines %d: %d live, %v", lines, d.Len(), err)
		}
	}
	for lines, want := range map[int]int{1: 4, 2: 4, 3: 8, 5: 8, 6: 16, 49_151: 65_536, 49_152: 131_072, 262_144: 524_288} {
		if got := dirCap(lines); got != want {
			t.Errorf("dirCap(%d) = %d, want %d", lines, got, want)
		}
	}
}

// TestDirectoryBytes holds TableBytes to the slot's real layout (24
// bytes: the tag lives in the entry's padding), to the table a directory
// actually allocates first, and to where core's victim-hint gate,
// TableBytes(bound) ≥ prefetch.HugePageBytes, switches on: at 49 152
// lines, the first bound whose table (2^17 slots, 3 MB) passes 2 MB.
// Bounds of 24 576–49 151 lines get a 1.5 MB table and no hints, as does
// an unbounded directory's first table.
func TestDirectoryBytes(t *testing.T) {
	if got := reflect.TypeOf(dirSlot{}).Size(); got != 24 || dirSlotBytes != 24 {
		t.Fatalf("dirSlot is %d bytes, dirSlotBytes says %d, want 24", got, dirSlotBytes)
	}
	for lines, huge := range map[int]bool{
		0: false, 1000: false, 24_575: false, 24_576: false,
		32_767: false, 32_768: false, 49_151: false, 49_152: true, 262_144: true,
	} {
		d := NewDirectoryFor(16, lines)
		d.Get(0)
		if got := TableBytes(lines); got != d.Cap()*dirSlotBytes {
			t.Errorf("lines %d: TableBytes %d for a first table of %d slots", lines, got, d.Cap())
		}
		if got := TableBytes(lines) >= prefetch.HugePageBytes; got != huge {
			t.Errorf("lines %d: TableBytes %d: huge-page size %v, want %v", lines, TableBytes(lines), got, huge)
		}
	}
}

// TestNewDirectoryUnchanged pins the unbounded directory to the table it
// built before bounds existed: it starts at dirInitialSlots, doubles at
// each 3/4 load, and after a fixed stream of fills and releases lays out
// every entry in exactly the same slot — the digest (which folds slot
// positions) was recorded from the doubling-only implementation.
func TestNewDirectoryUnchanged(t *testing.T) {
	d := NewDirectory(16)
	var caps []int
	rng := sim.NewRNG(0x5eed)
	for i := 0; i < 220_000; i++ {
		addr := sim.Addr(rng.Uint64n(1<<20)) << sim.LineShift
		if e, ok := d.Probe(addr); ok && rng.Bool(0.3) {
			e.Clear()
			d.Release(addr)
		} else {
			d.Get(addr).AddL1(i % 16)
		}
		if len(caps) == 0 || caps[len(caps)-1] != d.Cap() {
			caps = append(caps, d.Cap())
		}
	}
	want := []int{1 << 16, 1 << 17, 1 << 18}
	if len(caps) != len(want) {
		t.Fatalf("capacities %v, want %v", caps, want)
	}
	for i := range want {
		if caps[i] != want[i] {
			t.Fatalf("capacities %v, want %v", caps, want)
		}
	}
	const digest = 0x446d3322357eaa69
	if got := d.StateDigest(cache.DigestSeed); got != digest {
		t.Fatalf("digest %#x, want %#x (%d live)", got, uint64(digest), d.Len())
	}
}
