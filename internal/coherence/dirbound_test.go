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
// a sparse space, so probe clusters form from hashing alone). It returns
// the peak live count and checks after every operation that the flat
// table's capacity is its first one, or dirCap(lines) once it has grown:
// bounded traffic grows the table at most once.
func boundedOps(t *testing.T, flat *Directory, ref *RefDirectory, lines, ops int, seed uint64) (peak int) {
	t.Helper()
	rng := sim.NewRNG(seed)
	first, bound := flat.Cap(), dirCap(lines)
	var live []sim.Addr
	for op := 0; op < ops; op++ {
		if len(live) < lines && (len(live) == 0 || rng.Bool(0.75)) {
			addr := sim.Addr(rng.Uint64n(1<<34)) << sim.LineShift
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
			*fe, *re = NewEntry(), NewEntry()
			flat.Release(addr)
			ref.Release(addr)
		}
		peak = max(peak, len(live))
		if flat.Len() != ref.Len() || flat.Len() != len(live) {
			t.Fatalf("op %d: Len: flat=%d ref=%d live=%d", op, flat.Len(), ref.Len(), len(live))
		}
		if c := flat.Cap(); c != first && c != bound {
			t.Fatalf("op %d: %d live of bound %d: capacity %d, want %d or %d",
				op, len(live), lines, c, first, bound)
		}
	}
	checkParity(t, flat, ref)
	return peak
}

// TestDirectoryBoundHoldsCapacity: a directory sized for lines entries
// keeps its capacity under any traffic that stays within them, except
// for the one jump to dirCap(lines) when the first allocation fills — and
// it stays in parity with the map-backed oracle throughout.
func TestDirectoryBoundHoldsCapacity(t *testing.T) {
	for _, lines := range []int{1, 100, 1535, 16_384, 49_152, 65_536, 262_144} {
		if testing.Short() && lines > 65_536 {
			continue
		}
		flat, ref := NewDirectoryFor(16, lines), NewRefDirectory(16)
		first := flat.Cap()
		peak := boundedOps(t, flat, ref, lines, max(4*lines, 1000), uint64(lines))
		want := first
		if peak > first*3/4 {
			want = dirCap(lines)
		}
		if flat.Cap() != want {
			t.Errorf("bound %d, peak %d live: capacity %d, want %d", lines, peak, flat.Cap(), want)
		}
		t.Logf("bound %d: first %d slots, peak %d live, final %d slots", lines, first, peak, flat.Cap())
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
// table, whether the table was allocated at the bound (small bound) or
// jumped there from the initial allocation (large bound).
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

// TestDirectoryFirstAllocation: whatever the bound, the first allocation
// is min(dirCap(lines), dirInitialSlots) — a paper-scale bound costs no
// more up front than an unbounded directory — and no bound means
// dirInitialSlots.
func TestDirectoryFirstAllocation(t *testing.T) {
	for _, lines := range []int{0, 1, 2, 3, 1000, 49_151, 49_152, 262_144, 1 << 30} {
		want := dirInitialSlots
		if lines > 0 {
			want = min(dirCap(lines), dirInitialSlots)
		}
		if got := NewDirectoryFor(16, lines).Cap(); got != want || got > dirInitialSlots {
			t.Errorf("NewDirectoryFor(16, %d): %d slots, want %d", lines, got, want)
		}
	}
	for lines, want := range map[int]int{1: 4, 2: 4, 3: 8, 5: 8, 6: 16, 49_151: 65_536, 49_152: 131_072, 262_144: 524_288} {
		if got := dirCap(lines); got != want {
			t.Errorf("dirCap(%d) = %d, want %d", lines, got, want)
		}
	}
}

// TestDirectoryBytes holds Bytes to the slot's real layout and to the
// promise core's victim-hint gate rests on: a new directory's table is of
// huge-page size exactly when the table at its bound is (an unbounded
// one starts at 2 MB).
func TestDirectoryBytes(t *testing.T) {
	if got := reflect.TypeOf(dirSlot{}).Size(); got != dirSlotBytes {
		t.Fatalf("dirSlot is %d bytes, dirSlotBytes says %d", got, dirSlotBytes)
	}
	for _, lines := range []int{0, 1000, 32_767, 32_768, 49_151, 49_152, 262_144} {
		d := NewDirectoryFor(16, lines)
		if d.Bytes() != d.Cap()*dirSlotBytes {
			t.Errorf("lines %d: Bytes %d for %d slots", lines, d.Bytes(), d.Cap())
		}
		atBound := dirInitialSlots * dirSlotBytes
		if lines > 0 {
			atBound = dirCap(lines) * dirSlotBytes
		}
		if got, want := d.Bytes() >= prefetch.HugePageBytes, atBound >= prefetch.HugePageBytes; got != want {
			t.Errorf("lines %d: first table %d bytes, %d at the bound: huge-page size %v now, %v at the bound", lines, d.Bytes(), atBound, got, want)
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
			*e = NewEntry()
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
