package coherence

import (
	"encoding/binary"
	"math/bits"
	"testing"

	"consim/internal/cache"
	"consim/internal/sim"
)

// dirFuzzBounds are the tables FuzzDirectoryOps drives: bounded ones
// from a single line to past the victim-hint gate, whose home-bucket
// counts (3 to 87 383) are powers of two and not, and an unbounded one
// (0, NewDirectory).
var dirFuzzBounds = []int{1, 3, 7, 1000, 49_151, 65_536, 0}

// dirOp is one operation of FuzzDirectoryOps' stream.
type dirOp struct {
	kind  uint8 // one of the dirOp* kinds, modulo dirOpKinds
	arg   uint8 // low 4 bits: the core or bank; 0x10: take ownership; 0x60: opMutate's mutation
	block uint32
}

const (
	dirOpGetL1       = iota // Get, add a private sharer
	dirOpGetL2              // Get, add a bank sharer
	dirOpProbe              // Probe, compare
	dirOpMutate             // ProbeSlot + EntryAt, compare, then drop, clear or add a sharer
	dirOpReleaseSlot        // ProbeSlot, clear the entry, ReleaseSlot
	dirOpRelease            // Release (a no-op while the line is on chip)
	dirOpTail               // dirOpGetL2 of the next block homed in the table's last buckets
	dirOpKinds
)

// encodeDirOps is FuzzDirectoryOps' input format: six bytes per
// operation, the kind, the argument, then the block as a little-endian
// uint32 (taken modulo cache.MaxLines).
func encodeDirOps(ops []dirOp) []byte {
	b := make([]byte, 0, 6*len(ops))
	for _, op := range ops {
		b = append(b, op.kind, op.arg)
		b = binary.LittleEndian.AppendUint32(b, op.block)
	}
	return b
}

func decodeDirOps(data []byte) []dirOp {
	ops := make([]dirOp, len(data)/6)
	for i := range ops {
		r := data[6*i:]
		ops[i] = dirOp{kind: r[0], arg: r[1], block: binary.LittleEndian.Uint32(r[2:])}
	}
	return ops
}

// dirPair is a Directory under test beside the map-backed oracle.
type dirPair struct {
	d    *Directory
	ref  *RefDirectory
	next uint64 // dirOpTail's search cursor
}

func newDirPair(bound int) *dirPair {
	return &dirPair{d: NewDirectoryFor(16, bound), ref: NewRefDirectory(16)}
}

// tailBlock returns the next block from the pair's cursor on whose home
// is one of the table's last 8 home buckets (those of the table the
// first insert allocates, while a bounded directory has none).
func (p *dirPair) tailBlock() sim.Addr {
	n := p.d.buckets
	if n == 0 {
		n = uint64(p.d.jump)
	}
	for {
		b := p.next
		p.next++
		if h, _ := bits.Mul64(b*fibMul, n); h+8 >= n {
			return sim.Addr(b) << sim.LineShift
		}
	}
}

// run applies ops to both directories, checking every answer against
// the oracle and the table's invariants after every operation, and the
// whole of both directories at the end.
func (p *dirPair) run(t *testing.T, ops []dirOp) {
	t.Helper()
	for k, op := range ops {
		addr := sim.Addr(uint64(op.block)%cache.MaxLines) << sim.LineShift
		c := int(op.arg & 15)
		own := op.arg&0x10 != 0
		switch op.kind % dirOpKinds {
		case dirOpGetL1:
			fe, re := p.d.Get(addr), p.ref.Get(addr)
			fe.AddL1(c)
			re.AddL1(c)
			if own {
				fe.L1Owner, re.L1Owner = int8(c), int8(c)
			}
		case dirOpTail:
			addr = p.tailBlock()
			fallthrough
		case dirOpGetL2:
			fe, re := p.d.Get(addr), p.ref.Get(addr)
			fe.AddL2(c)
			re.AddL2(c)
			if own {
				fe.L2Owner, re.L2Owner = int8(c), int8(c)
			}
		case dirOpProbe:
			fe, fok := p.d.Probe(addr)
			re, rok := p.ref.Probe(addr)
			if fok != rok || fok && !sameState(fe, re) {
				t.Fatalf("op %d: Probe(%#x) = %v; the oracle has %v", k, addr, fok, rok)
			}
		case dirOpMutate:
			i, fok := p.d.ProbeSlot(addr)
			re, rok := p.ref.Probe(addr)
			if fok != rok {
				t.Fatalf("op %d: ProbeSlot(%#x) = %v; the oracle has %v", k, addr, fok, rok)
			}
			if !fok {
				break
			}
			fe := p.d.EntryAt(i)
			if !sameState(fe, re) {
				t.Fatalf("op %d: slot %d of %#x: %+v, the oracle's %+v", k, i, addr, *fe, *re)
			}
			switch op.arg >> 5 & 3 {
			case 0:
				fe.DropL1(c)
				re.DropL1(c)
			case 1:
				fe.DropL2(c)
				re.DropL2(c)
			case 2:
				fe.Clear()
				re.Clear()
			case 3:
				fe.AddL1(c)
				re.AddL1(c)
			}
		case dirOpReleaseSlot:
			i, fok := p.d.ProbeSlot(addr)
			re, rok := p.ref.Probe(addr)
			if fok != rok {
				t.Fatalf("op %d: ProbeSlot(%#x) = %v; the oracle has %v", k, addr, fok, rok)
			}
			if fok {
				p.d.EntryAt(i).Clear()
				re.Clear()
				p.d.ReleaseSlot(i)
				p.ref.Release(addr)
			}
		case dirOpRelease:
			p.d.Release(addr)
			p.ref.Release(addr)
		}
		if p.d.Len() != p.ref.Len() {
			t.Fatalf("op %d: Len %d, the oracle's %d", k, p.d.Len(), p.ref.Len())
		}
		if err := p.d.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
	}
	checkParity(t, p.d, p.ref)
}

// randomDirOps returns n operations on blocks below span, so fills,
// probes and releases meet the same lines.
func randomDirOps(rng *sim.RNG, n int, span uint64) []dirOp {
	ops := make([]dirOp, n)
	for i := range ops {
		ops[i] = dirOp{kind: uint8(rng.Intn(dirOpKinds - 1)), arg: uint8(rng.Uint64()), block: uint32(rng.Uint64n(span))}
	}
	return ops
}

// tailOps fills 1 200 blocks homed in the table's last 8 buckets — a
// cluster longer than the whole tail, so the fill that would take the
// table's last slot goes to the growth fallback — then probes, mutates
// and releases some of them.
func tailOps(bound int) []dirOp {
	ops := make([]dirOp, 0, 1_500)
	for i := range 1_200 {
		ops = append(ops, dirOp{kind: dirOpTail, arg: uint8(i)})
	}
	blocks := newDirPair(bound) // a fresh cursor: the first blocks filled
	for i := range 100 {
		b := uint32(blocks.tailBlock() >> sim.LineShift)
		ops = append(ops, dirOp{kind: uint8(dirOpProbe + i%4), arg: uint8(i * 37), block: b})
	}
	return ops
}

// dirFuzzMaxOps caps FuzzDirectoryOps' stream, above the tail seeds'
// 1 300 operations.
const dirFuzzMaxOps = 1_500

// FuzzDirectoryOps: any stream of Get, Probe, ProbeSlot + EntryAt
// mutation, ReleaseSlot and Release on any of dirFuzzBounds' tables
// gives the map oracle's answers and keeps the table's invariants after
// every operation. Seeded with random streams on every table and, on
// the 65 536-line and unbounded ones, a stream whose blocks all home in
// the table's last buckets.
func FuzzDirectoryOps(f *testing.F) {
	for i, bound := range dirFuzzBounds {
		n := 300
		if bound == 0 || bound > 10_000 {
			n = 100 // each operation walks the whole table, as below
		}
		ops := randomDirOps(sim.NewRNG(uint64(i)+1), n, uint64(2*bound+64))
		f.Add(uint8(i), encodeDirOps(ops))
	}
	for i, bound := range dirFuzzBounds {
		if bound == 65_536 || bound == 0 {
			f.Add(uint8(i), encodeDirOps(tailOps(bound)))
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		ops := decodeDirOps(data)
		// Every operation walks the whole table (up to 88 407 slots):
		// a longer input would only slow the fuzzer down.
		ops = ops[:min(len(ops), dirFuzzMaxOps)]
		newDirPair(dirFuzzBounds[int(sel)%len(dirFuzzBounds)]).run(t, ops)
	})
}

// TestDirectoryTailOverflow runs FuzzDirectoryOps' tail seeds and holds
// them to reaching the growth fallback: a cluster through the whole tail
// doubles the tail, moving no slot and keeping the home buckets, and the
// table stays in parity with the oracle throughout.
func TestDirectoryTailOverflow(t *testing.T) {
	for _, bound := range []int{65_536, 0} {
		p := newDirPair(bound)
		p.run(t, tailOps(bound))
		want := uint64(dirCap(bound))
		if bound == 0 {
			want = dirInitialSlots
		}
		if p.d.buckets != want || len(p.d.slots) != int(want)+2*dirTail {
			t.Errorf("bound %d: %d home buckets in %d slots, want %d in %d (a doubled tail)", bound, p.d.buckets, len(p.d.slots), want, int(want)+2*dirTail)
		}
	}
}

// probeLengths returns the mean probe length of a hit (slots read to
// find a live entry, its own included) over every live entry, that of a
// miss (slots read from a home bucket to the first free one, inclusive)
// over every home bucket, and the longest cluster.
func probeLengths(d *Directory) (hit, miss float64, longest int) {
	var hits, misses uint64
	run := 0
	for i := len(d.slots) - 1; i >= 0; i-- {
		if d.slots[i].tag == dirFree {
			run = 0
		} else {
			run++
			hits += uint64(i) - d.idx(keyOfTag(d.slots[i].tag)) + 1
			longest = max(longest, run)
		}
		if uint64(i) < d.buckets {
			misses += uint64(run) + 1
		}
	}
	return float64(hits) / float64(d.used), float64(misses) / float64(d.buckets), longest
}

// TestDirectoryProbeLengths guards the hash and the tail's size on keys
// shaped like the simulator's: four VMs' regions at vm.Layout's
// 1<<20-block alignment, each drawn Zipf-skewed by rank from its base as
// the workload generator draws its hot sets. A table bounded at 262 144
// lines (the paper-scale mix's) is filled to that bound — its 3/4 load —
// and churned for 10^6 insert/release pairs (10^5 under -short). Mean
// probe lengths stay within 20% of linear probing's expectation at
// α = 3/4, 2.5 for a hit and 8.5 for a miss, and no cluster reaches the
// tail's last slot, which would have grown the table.
func TestDirectoryProbeLengths(t *testing.T) {
	const bound = 262_144
	pairs := 1_000_000
	if testing.Short() {
		pairs = 100_000
	}
	d := NewDirectoryFor(16, bound)
	rng := sim.NewRNG(0x7a11)
	zipf := sim.NewZipf(1<<19, 0.8)
	live := make([]sim.Addr, 0, bound)
	draw := func() sim.Addr {
		for {
			a := sim.Addr(uint64(rng.Intn(4))<<20+zipf.Sample(rng)) << sim.LineShift
			if _, ok := d.Probe(a); !ok {
				return a
			}
		}
	}
	// Knuth's linear-probing expectations at load α: ½(1+1/(1-α)) for a
	// hit, ½(1+1/(1-α)²) for a miss. The fill is checked on the way up
	// too, so a broken hash fails long before its quadratic fill ends.
	check := func(at string) {
		t.Helper()
		hit, miss, longest := probeLengths(d)
		alpha := float64(d.Len()) / float64(d.buckets)
		wantHit, wantMiss := (1+1/(1-alpha))/2, (1+1/((1-alpha)*(1-alpha)))/2
		t.Logf("%s: α %.4f, mean probe %.3f hit (want %.3f), %.3f miss (want %.3f), longest cluster %d", at, alpha, hit, wantHit, miss, wantMiss, longest)
		if hit < 0.8*wantHit || hit > 1.2*wantHit || miss < 0.8*wantMiss || miss > 1.2*wantMiss {
			t.Fatalf("%s: mean probe %.3f hit, %.3f miss, want within 20%% of %.3f and %.3f", at, hit, miss, wantHit, wantMiss)
		}
		if len(d.slots) != dirCap(bound)+dirTail || d.CheckInvariants() != nil {
			t.Fatalf("%s: a cluster reached the tail's last slot: the table grew to %d slots", at, len(d.slots))
		}
	}
	for len(live) < bound {
		a := draw()
		d.Get(a).AddL2(0)
		live = append(live, a)
		if len(live)%(1<<14) == 0 {
			check("filling")
		}
	}
	check("filled")
	for i := range pairs {
		a := draw()
		d.Get(a).AddL2(0)
		k := rng.Intn(len(live))
		si, _ := d.ProbeSlot(live[k])
		d.EntryAt(si).Clear()
		d.ReleaseSlot(si)
		live[k] = a
		if (i+1)%(pairs/4) == 0 {
			check("churned")
		}
	}
}
