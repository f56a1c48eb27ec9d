package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"consim/internal/sim"
)

func small() *Cache {
	// 4 sets x 2 ways of 64B lines = 512B.
	return New(Config{SizeBytes: 512, Assoc: 2, Latency: 3})
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{SizeBytes: 512, Assoc: 2}, true},
		{Config{SizeBytes: 0, Assoc: 2}, false},
		{Config{SizeBytes: 512, Assoc: 0}, false},
		{Config{SizeBytes: 100, Assoc: 2}, false},    // not line multiple
		{Config{SizeBytes: 64 * 6, Assoc: 2}, false}, // 3 sets, not pow2
		{Config{SizeBytes: 64 * 6, Assoc: 3}, true},  // 2 sets
		{Config{SizeBytes: 64, Assoc: 1}, true},
	}
	for i, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad config did not panic")
		}
	}()
	New(Config{SizeBytes: 100, Assoc: 3})
}

func TestLookupMissThenHit(t *testing.T) {
	c := small()
	if _, ok := c.Lookup(0x1000); ok {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0x1000, Shared, 1)
	w, ok := c.Lookup(0x1000)
	if !ok {
		t.Fatal("miss after insert")
	}
	if c.State(w) != Shared || c.WayVM(w) != 1 {
		t.Errorf("line = %v/%d", c.State(w), c.WayVM(w))
	}
	if c.WayTag(w) != 0x1000 {
		t.Errorf("WayTag = %#x", c.WayTag(w))
	}
	if c.Accesses != 2 || c.Hits != 1 || c.Misses != 1 {
		t.Errorf("stats = %d/%d/%d", c.Accesses, c.Hits, c.Misses)
	}
}

func TestLookupSameLineDifferentOffsets(t *testing.T) {
	c := small()
	c.Insert(0x1000, Exclusive, 0)
	if _, ok := c.Lookup(0x103f); !ok {
		t.Error("offset within line missed")
	}
	if _, ok := c.Lookup(0x1040); ok {
		t.Error("next line hit spuriously")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2 ways per set
	// Three lines in the same set (set stride = 4 sets * 64B = 256B).
	a, b, d := sim.Addr(0x0000), sim.Addr(0x0100), sim.Addr(0x0200)
	c.Insert(a, Shared, 0)
	c.Insert(b, Shared, 0)
	c.Lookup(a) // refresh a: b is now LRU
	victim, evicted, _ := c.Insert(d, Shared, 0)
	if !evicted || victim.Tag != b {
		t.Fatalf("evicted %v (%#x), want %#x", evicted, victim.Tag, b)
	}
	if _, ok := c.Probe(a); !ok {
		t.Error("recently used line evicted")
	}
}

func TestInsertDoubleInsertPanics(t *testing.T) {
	c := small()
	c.Insert(0x40, Shared, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	c.Insert(0x40, Shared, 0)
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(0x80, Modified, 2)
	old, ok := c.Invalidate(0x80)
	if !ok || old.State != Modified || old.VM != 2 {
		t.Fatalf("Invalidate = %+v, %v", old, ok)
	}
	if _, ok := c.Probe(0x80); ok {
		t.Error("line still resident after invalidate")
	}
	if _, ok := c.Invalidate(0x80); ok {
		t.Error("second invalidate reported a line")
	}
}

// TestComplementTagEdges: a slot stores its line number complemented, so
// the all-zero word is the empty way. Line 0 (stored as all ones) and the
// largest taggable line, MaxLines-1 (stored as 1, next to the empty
// marker), each round-trip through Insert, Lookup, WayTag, ForEach and
// Invalidate beside a resident neighbour in the same set; line MaxLines,
// whose complement is the empty marker, is refused.
func TestComplementTagEdges(t *testing.T) {
	for _, line := range []uint64{0, MaxLines - 1} {
		c := small()
		addr := sim.Addr(line << sim.LineShift)
		other := sim.Addr((line ^ 4) << sim.LineShift) // same set of 4, other tag
		want := Line{Tag: addr, State: Modified, VM: 7}
		c.Insert(other, Shared, 1)
		if _, evicted, w := c.Insert(addr, Modified, 7); evicted || c.WayTag(w) != addr || c.State(w) != Modified || c.WayVM(w) != 7 {
			t.Fatalf("line %#x: Insert evicted %v, way reads %#x/%v/%d", line, evicted, c.WayTag(w), c.State(w), c.WayVM(w))
		}
		if _, ok := c.Lookup(other); !ok {
			t.Fatalf("line %#x: neighbour lost", line)
		}
		if w, ok := c.Lookup(addr); !ok || c.WayTag(w) != addr {
			t.Fatalf("line %#x: Lookup = %d, %v", line, w, ok)
		}
		var seen []Line
		c.ForEach(func(l *Line) { seen = append(seen, *l) })
		if len(seen) != 2 || seen[0] != want || seen[1] != (Line{Tag: other, State: Shared, VM: 1}) {
			t.Fatalf("line %#x: ForEach visited %+v", line, seen)
		}
		if l, ok := c.Invalidate(addr); !ok || l != want {
			t.Fatalf("line %#x: Invalidate = %+v, %v", line, l, ok)
		}
		if _, ok := c.Probe(addr); ok || c.Resident() != 1 {
			t.Fatalf("line %#x: resident after Invalidate (%d lines left)", line, c.Resident())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("line MaxLines, the empty marker's complement, was accepted")
		}
	}()
	small().Lookup(sim.Addr(MaxLines << sim.LineShift))
}

// TestFreshSlabIsEmpty: a level's zeroed slab is already an empty cache,
// with no fill pass: no line is resident and no set has a victim, also
// under a way partition.
func TestFreshSlabIsEmpty(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 64, Assoc: 4}
	for i, c := range NewN(3, cfg) {
		if i == 2 {
			c.SetPartition([]int{1, 3})
		}
		if n := c.Resident(); n != 0 {
			t.Fatalf("cache %d: %d resident lines in a fresh slab", i, n)
		}
		for set := 0; set < c.Lines()/cfg.Assoc; set++ {
			if tag, ok := c.PeekVictimTag(sim.Addr(set)<<sim.LineShift, 1); ok {
				t.Fatalf("cache %d set %d: fresh set names victim %#x", i, set, tag)
			}
		}
	}
}

func TestProbeDoesNotTouchStats(t *testing.T) {
	c := small()
	c.Insert(0xc0, Shared, 0)
	before := c.Accesses
	c.Probe(0xc0)
	c.Probe(0xdead)
	if c.Accesses != before {
		t.Error("Probe counted as access")
	}
}

func TestOccupancyByVM(t *testing.T) {
	c := New(Config{SizeBytes: 64 * 16, Assoc: 4})
	for i := 0; i < 6; i++ {
		c.Insert(sim.Addr(i*64), Shared, uint8(i%2))
	}
	occ := c.OccupancyByVM(1)
	if occ[0] != 3 || occ[1] != 3 {
		t.Errorf("occupancy = %v", occ)
	}
	if c.Resident() != 6 {
		t.Errorf("Resident = %d", c.Resident())
	}
}

func TestForEachVisitsAll(t *testing.T) {
	c := New(Config{SizeBytes: 64 * 16, Assoc: 4})
	want := map[sim.Addr]bool{}
	for i := 0; i < 5; i++ {
		a := sim.Addr(i * 64)
		c.Insert(a, Shared, 0)
		want[a] = true
	}
	got := map[sim.Addr]bool{}
	c.ForEach(func(l *Line) { got[l.Tag] = true })
	if len(got) != len(want) {
		t.Errorf("ForEach visited %d, want %d", len(got), len(want))
	}
}

func TestMissRateAndReset(t *testing.T) {
	c := small()
	c.Lookup(0) // miss
	c.Insert(0, Shared, 0)
	c.Lookup(0) // hit
	if mr := c.MissRate(); mr != 0.5 {
		t.Errorf("MissRate = %v", mr)
	}
	c.ResetStats()
	if c.Accesses != 0 || c.MissRate() != 0 {
		t.Error("ResetStats incomplete")
	}
	if _, ok := c.Probe(0); !ok {
		t.Error("ResetStats dropped contents")
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", Owned: "O"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if !Modified.Dirty() || !Owned.Dirty() || Shared.Dirty() || Exclusive.Dirty() {
		t.Error("Dirty() classification wrong")
	}
}

// TestAgainstReferenceModel drives the cache and a brute-force reference
// (map + LRU timestamps) with random operations and checks that residency
// always agrees.
func TestAgainstReferenceModel(t *testing.T) {
	type ref struct {
		used uint64
		vm   uint8
	}
	f := func(ops []uint16, seed uint64) bool {
		c := New(Config{SizeBytes: 64 * 32, Assoc: 4}) // 8 sets
		model := map[sim.Addr]ref{}
		tick := uint64(0)
		setOf := func(a sim.Addr) uint64 { return (uint64(a) >> 6) & 7 }
		for _, op := range ops {
			tick++
			addr := sim.Addr(op%256) * 64
			switch op % 3 {
			case 0: // lookup
				_, chit := c.Lookup(addr)
				_, mhit := model[addr]
				if chit != mhit {
					return false
				}
				if chit {
					m := model[addr]
					m.used = tick
					model[addr] = m
				}
			case 1: // insert if absent
				if _, ok := model[addr]; ok {
					continue
				}
				// Evict model's LRU of the set if full.
				n := 0
				var lruA sim.Addr
				var lruT uint64 = ^uint64(0)
				for a, m := range model {
					if setOf(a) != setOf(addr) {
						continue
					}
					n++
					if m.used < lruT {
						lruT, lruA = m.used, a
					}
				}
				if n == 4 {
					delete(model, lruA)
				}
				c.Insert(addr, Shared, 0)
				model[addr] = ref{used: tick}
			case 2: // invalidate
				_, chad := c.Invalidate(addr)
				_, mhad := model[addr]
				if chad != mhad {
					return false
				}
				delete(model, addr)
			}
		}
		// Final residency must agree exactly.
		if c.Resident() != len(model) {
			return false
		}
		for a := range model {
			if _, ok := c.Probe(a); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// lruOracle is the timestamp-LRU array the recency-ordered layout
// replaced, kept as the reference the property test and FuzzCacheOps
// compare against: ways never move, every touch stamps the way with a
// global clock, and a fill takes the first empty way, else the way with
// the oldest stamp (per partition rule under quotas).
type lruOracle struct {
	assoc   int
	setMask uint64
	ways    []oracleWay // set*assoc + way
	tick    uint64
	quota   []int

	accesses, hits, misses, evictions uint64
}

type oracleWay struct {
	line  Line
	used  uint64
	valid bool
}

func newOracle(cfg Config) *lruOracle {
	lines := cfg.SizeBytes / sim.LineBytes
	return &lruOracle{assoc: cfg.Assoc, setMask: uint64(lines/cfg.Assoc - 1), ways: make([]oracleWay, lines)}
}

func (o *lruOracle) set(addr sim.Addr) []oracleWay {
	base := int(uint64(addr)>>sim.LineShift&o.setMask) * o.assoc
	return o.ways[base : base+o.assoc]
}

func (o *lruOracle) find(addr sim.Addr) *oracleWay {
	tag := addr >> sim.LineShift << sim.LineShift
	s := o.set(addr)
	for i := range s {
		if s[i].valid && s[i].line.Tag == tag {
			return &s[i]
		}
	}
	return nil
}

func (o *lruOracle) lookup(addr sim.Addr) bool {
	o.accesses++
	w := o.find(addr)
	if w == nil {
		o.misses++
		return false
	}
	o.tick++
	w.used = o.tick
	o.hits++
	return true
}

func (o *lruOracle) quotaOf(vm uint8) int {
	if o.quota == nil || int(vm) >= len(o.quota) {
		return o.assoc
	}
	return max(o.quota[vm], 1)
}

// victim is the replacement choice of the old Insert: first empty way,
// else LRU of the inserter's own lines when it is at quota, else LRU of
// any over-quota VM's lines, else global LRU.
func (o *lruOracle) victim(s []oracleWay, vm uint8) *oracleWay {
	var counts [256]int
	var own, over, lru *oracleWay
	for i := range s {
		if !s[i].valid {
			return &s[i]
		}
		counts[s[i].line.VM]++
	}
	older := func(w, than *oracleWay) bool { return than == nil || w.used < than.used }
	for i := range s {
		w := &s[i]
		if older(w, lru) {
			lru = w
		}
		if o.quota == nil {
			continue
		}
		if w.line.VM == vm && older(w, own) {
			own = w
		}
		if counts[w.line.VM] > o.quotaOf(w.line.VM) && older(w, over) {
			over = w
		}
	}
	switch {
	case own != nil && counts[vm] >= o.quotaOf(vm):
		return own
	case over != nil:
		return over
	}
	return lru
}

func (o *lruOracle) insertIfAbsent(addr sim.Addr, st State, vm uint8) (victim Line, evicted, inserted bool) {
	if o.find(addr) != nil {
		return Line{}, false, false
	}
	w := o.victim(o.set(addr), vm)
	if w.valid {
		victim, evicted = w.line, true
		o.evictions++
	}
	o.tick++
	*w = oracleWay{line: Line{Tag: addr >> sim.LineShift << sim.LineShift, State: st, VM: vm}, used: o.tick, valid: true}
	return victim, evicted, true
}

func (o *lruOracle) invalidate(addr sim.Addr) (Line, bool) {
	w := o.find(addr)
	if w == nil {
		return Line{}, false
	}
	l := w.line
	*w = oracleWay{}
	return l, true
}

// recency returns every set's resident lines, MRU first.
func (o *lruOracle) recency() [][]Line {
	var out [][]Line
	for base := 0; base < len(o.ways); base += o.assoc {
		s := append([]oracleWay(nil), o.ways[base:base+o.assoc]...)
		sort.Slice(s, func(a, b int) bool { return s[a].used > s[b].used })
		var lines []Line
		for _, w := range s {
			if w.valid {
				lines = append(lines, w.line)
			}
		}
		out = append(out, lines)
	}
	return out
}

// recency returns every set's resident lines in slot order, failing the
// test if an empty way precedes a resident one.
func (c *Cache) recency(t testing.TB) [][]Line {
	var out [][]Line
	for base := 0; base < len(c.slots); base += c.assoc {
		var lines []Line
		for i, v := range c.slots[base : base+c.assoc] {
			if v == emptySlot {
				continue
			}
			if i != len(lines) {
				t.Fatalf("set at slot %d: resident way %d follows an empty one", base, i)
			}
			lines = append(lines, slotLine(v))
		}
		out = append(out, lines)
	}
	return out
}

// cacheOpsGeometry is the machine every driven sequence runs on: four
// sets, and three times as many distinct lines per set as there are ways,
// so sets fill, thrash and (through Invalidate) carry empty ways.
const (
	opsSets        = 4
	opsLinesPerWay = 3
	opsVMs         = 4
)

// driveCacheOps decodes ops three bytes at a time into
// Lookup/Probe/Insert/InsertIfAbsent/Invalidate/SetState/SetPartition
// calls, applies each to a Cache and to the timestamp-LRU oracle, and
// fails on any difference in results, victims, counters, resident lines
// or recency order.
//
// With slab set the cache under test is the middle one of a NewN level,
// and its two neighbours must come out untouched.
func driveCacheOps(t testing.TB, assoc int, partitioned, slab bool, ops []byte) {
	cfg := Config{SizeBytes: opsSets * assoc * sim.LineBytes, Assoc: assoc}
	c, o := New(cfg), newOracle(cfg)
	if slab {
		level := NewN(3, cfg)
		c = level[1]
		defer func() {
			for _, nb := range []*Cache{level[0], level[2]} {
				if nb.Resident() != 0 || nb.Accesses != 0 || nb.Partitioned() {
					t.Fatalf("%d-way: driving one cache of a level changed its neighbour", assoc)
				}
			}
		}()
	}
	// VM 0 is squeezed to one way, VM 1 to half the set, VM 2 gets a
	// quota it can never exceed and VM 3 is unlisted (unconstrained).
	quota := []int{1, max(assoc/2, 1), assoc}
	setPartition := func(on bool) {
		if on {
			c.SetPartition(quota)
			o.quota = quota
		} else {
			c.SetPartition(nil)
			o.quota = nil
		}
	}
	setPartition(partitioned)

	for n := 0; n+2 < len(ops); n += 3 {
		kind, sel, arg := ops[n], ops[n+1], ops[n+2]
		addr := sim.Addr(int(sel)%(opsSets*assoc*opsLinesPerWay)) << sim.LineShift
		st, vm := State(1+arg%4), arg/4%opsVMs
		fail := func(format string, a ...any) {
			t.Helper()
			t.Fatalf("%d-way partitioned=%v op %d (kind %d, %#x): %s", assoc, o.quota != nil, n/3, kind%9, addr, fmt.Sprintf(format, a...))
		}
		switch kind % 9 {
		case 0, 1, 2:
			w, hit := c.Lookup(addr)
			if hit != o.lookup(addr) {
				fail("Lookup hit = %v", hit)
			}
			if hit && (c.WayTag(w) != addr || c.State(w) != o.find(addr).line.State) {
				fail("Lookup handle reads %#x/%v", c.WayTag(w), c.State(w))
			}
		case 3:
			w, hit := c.Probe(addr)
			ow := o.find(addr)
			if hit != (ow != nil) {
				fail("Probe hit = %v", hit)
			}
			if hit && (Line{c.WayTag(w), c.State(w), c.WayVM(w)}) != ow.line {
				fail("Probe handle reads %+v, want %+v", Line{c.WayTag(w), c.State(w), c.WayVM(w)}, ow.line)
			}
		case 4:
			if o.find(addr) != nil {
				continue // Insert of a resident line panics; covered directly
			}
			v, ev, w := c.Insert(addr, st, vm)
			ov, oev, _ := o.insertIfAbsent(addr, st, vm)
			if v != ov || ev != oev {
				fail("Insert victim %+v/%v, want %+v/%v", v, ev, ov, oev)
			}
			if c.WayTag(w) != addr || c.State(w) != st || c.WayVM(w) != vm {
				fail("Insert handle reads %#x/%v/%d", c.WayTag(w), c.State(w), c.WayVM(w))
			}
		case 5:
			v, ev, w, ins := c.InsertIfAbsent(addr, st, vm)
			ov, oev, oins := o.insertIfAbsent(addr, st, vm)
			if v != ov || ev != oev || ins != oins {
				fail("InsertIfAbsent = %+v/%v/%v, want %+v/%v/%v", v, ev, ins, ov, oev, oins)
			}
			if c.WayTag(w) != addr {
				fail("InsertIfAbsent handle reads %#x", c.WayTag(w))
			}
		case 6:
			l, ok := c.Invalidate(addr)
			ol, ook := o.invalidate(addr)
			if l != ol || ok != ook {
				fail("Invalidate = %+v/%v, want %+v/%v", l, ok, ol, ook)
			}
		case 7:
			if w, ok := c.Probe(addr); ok {
				c.SetState(w, st)
				o.find(addr).line.State = st
			}
		case 8:
			if arg%8 == 0 { // rare, so sequences run long under each regime
				setPartition(o.quota == nil)
			}
		}
		if c.Accesses != o.accesses || c.Hits != o.hits || c.Misses != o.misses || c.Evictions != o.evictions {
			fail("counters %d/%d/%d/%d, want %d/%d/%d/%d", c.Accesses, c.Hits, c.Misses, c.Evictions, o.accesses, o.hits, o.misses, o.evictions)
		}
		// Slot order must be the oracle's stamp order: same lines, same
		// states and VMs, same recency rank, empty ways last.
		if got, want := c.recency(t), o.recency(); !reflect.DeepEqual(got, want) {
			fail("recency order\n got %+v\nwant %+v", got, want)
		}
	}

	// The public views agree with the oracle's resident multiset.
	var got, want []Line
	c.ForEach(func(l *Line) { got = append(got, *l) })
	occ := make([]int, opsVMs)
	for _, w := range o.ways {
		if w.valid {
			want = append(want, w.line)
			occ[w.line.VM]++
		}
	}
	byTag := func(s []Line) { sort.Slice(s, func(a, b int) bool { return s[a].Tag < s[b].Tag }) }
	byTag(got)
	byTag(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d-way: ForEach\n got %+v\nwant %+v", assoc, got, want)
	}
	if o := c.OccupancyByVM(opsVMs - 1); !reflect.DeepEqual(o, occ) || c.Resident() != len(want) {
		t.Fatalf("%d-way: OccupancyByVM %v Resident %d, want %v %d", assoc, o, c.Resident(), occ, len(want))
	}
}

// TestRecencyOrderMatchesTimestampLRU is the replacement's property test:
// random operation sequences at every associativity the machine uses,
// with and without way quotas.
func TestRecencyOrderMatchesTimestampLRU(t *testing.T) {
	for _, assoc := range []int{2, 4, 8, 16} {
		for _, partitioned := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(assoc)))
			for round := 0; round < 20; round++ {
				ops := make([]byte, 3*2000)
				rng.Read(ops)
				driveCacheOps(t, assoc, partitioned, round%2 == 1, ops)
			}
		}
	}
}

// FuzzCacheOps lets the fuzzer choose the geometry, the sequence and
// whether the cache is cut from a NewN slab.
func FuzzCacheOps(f *testing.F) {
	f.Add(uint8(0), []byte{4, 0, 0, 4, 8, 0, 0, 0, 0, 4, 16, 0, 6, 8, 0, 4, 24, 0})
	f.Add(uint8(5), []byte{5, 1, 4, 5, 9, 4, 5, 17, 0, 8, 0, 0, 5, 25, 8, 0, 1, 0, 6, 9, 0, 5, 33, 12})
	f.Add(uint8(7), []byte{4, 3, 1, 7, 3, 2, 3, 3, 0, 6, 3, 0, 0, 3, 0})
	f.Add(uint8(8), []byte{4, 0, 0, 4, 8, 0, 0, 0, 0, 4, 16, 0, 6, 8, 0, 4, 24, 0}) // seed 0 on a slab
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		driveCacheOps(t, 2<<(shape%4), shape&4 != 0, shape&8 != 0, ops)
	})
}

// TestWayHandleContract pins the handle-validity rule the access walk
// relies on: way 0 — what Lookup and Insert return — stays put when a
// different line of its set is invalidated, while a Probe handle to a
// deeper way goes stale when a shallower line is invalidated.
func TestWayHandleContract(t *testing.T) {
	c := New(Config{SizeBytes: 4 * sim.LineBytes, Assoc: 4}) // one set
	line := func(i int) sim.Addr { return sim.Addr(i) << sim.LineShift }
	for i := 0; i < 4; i++ {
		c.Insert(line(i), Shared, 0)
	}
	// Recency order is now 3, 2, 1, 0.
	deep, _ := c.Probe(line(0))
	mid, _ := c.Probe(line(2))
	if c.WayTag(deep) != line(0) || c.WayTag(mid) != line(2) {
		t.Fatalf("Probe handles read %#x, %#x", c.WayTag(deep), c.WayTag(mid))
	}
	c.Invalidate(line(2))
	if c.WayTag(mid) == line(2) {
		t.Error("handle to an invalidated line still reads it")
	}
	if c.WayTag(deep) == line(0) {
		t.Error("deep Probe handle survived the invalidation of a shallower way; the contract says it moves up")
	}
	if w, ok := c.Probe(line(0)); !ok || w != deep-1 {
		t.Errorf("line 0 at way %d (resident %v) after closing the gap, want way %d", w, ok, deep-1)
	}

	// The Lookup handle survives invalidations of every other line.
	w, ok := c.Lookup(line(1))
	if !ok {
		t.Fatal("line 1 lost")
	}
	c.Invalidate(line(3))
	c.Invalidate(line(0))
	if c.WayTag(w) != line(1) {
		t.Fatalf("Lookup handle reads %#x after unrelated invalidations", c.WayTag(w))
	}
	c.SetState(w, Modified)
	if pw, _ := c.Probe(line(1)); pw != w || c.State(pw) != Modified {
		t.Errorf("SetState through the Lookup handle missed the line (way %d state %v)", pw, c.State(pw))
	}

	// So does the Insert handle.
	_, _, iw := c.Insert(line(5), Exclusive, 2)
	c.Invalidate(line(1))
	if c.WayTag(iw) != line(5) || c.State(iw) != Exclusive || c.WayVM(iw) != 2 {
		t.Fatalf("Insert handle reads %#x/%v/%d after unrelated invalidation", c.WayTag(iw), c.State(iw), c.WayVM(iw))
	}
}

// TestNewNSlab pins what NewN is for and what keeps it safe: a level of
// caches costs three allocations however many caches it holds, every
// cache behaves as a New-built one does, a cache's ways end where its
// neighbour's begin, and the struct fills whole host cache lines so that
// neighbours' counters never share one.
func TestNewNSlab(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 16, Assoc: 4, Latency: 3}
	if n := testing.AllocsPerRun(10, func() { NewN(16, cfg) }); n != 3 {
		t.Errorf("NewN(16) made %v allocations, want 3", n)
	}
	if sz := unsafe.Sizeof(Cache{}); sz%64 != 0 {
		t.Errorf("Cache is %d bytes, not a multiple of the 64-byte host line", sz)
	}
	level, one := NewN(4, cfg), New(cfg)
	for i, c := range level {
		if c.Config() != cfg || c.Lines() != one.Lines() || cap(c.slots) != len(c.slots) {
			t.Fatalf("cache %d: config %+v, %d lines, cap %d", i, c.Config(), c.Lines(), cap(c.slots))
		}
		if c.StateDigest(DigestSeed) != one.StateDigest(DigestSeed) {
			t.Fatalf("cache %d of a fresh level digests unlike a fresh New cache", i)
		}
	}
	// Fill cache 1 past capacity; only cache 1 changes.
	for a := 0; a < 64; a++ {
		level[1].InsertIfAbsent(sim.Addr(a)<<sim.LineShift, Shared, 1)
	}
	if level[1].Resident() != level[1].Lines() {
		t.Fatalf("cache 1 holds %d of %d lines", level[1].Resident(), level[1].Lines())
	}
	for _, i := range []int{0, 2, 3} {
		if level[i].StateDigest(DigestSeed) != one.StateDigest(DigestSeed) {
			t.Errorf("filling cache 1 changed cache %d", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewN accepted an invalid geometry")
		}
	}()
	NewN(2, Config{SizeBytes: 100, Assoc: 3})
}
