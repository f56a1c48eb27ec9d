package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func specFor(t *testing.T, c Class) Spec {
	t.Helper()
	return Specs()[c]
}

func TestSpecsValidate(t *testing.T) {
	for _, s := range Specs() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSpecValidateRejectsBadFractions(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, mut := range map[string]func(*Spec){
		"region fractions > 1":  func(s *Spec) { s.PrivFrac, s.SharedFrac = 0.9, 0.9 },
		"reference mix > 1":     func(s *Spec) { s.PShared, s.PMig, s.PScan = 0.5, 0.5, 0.5 },
		"fraction out of [0,1]": func(s *Spec) { s.WriteFrac = 1.5 },
		"zero footprint":        func(s *Spec) { s.Blocks = 0 },
		"zero burst":            func(s *Spec) { s.MigBurst = 0 },
		"NaN PShared":           func(s *Spec) { s.PShared = nan },
		"NaN WriteFrac":         func(s *Spec) { s.WriteFrac = nan },
		"NaN PrivFrac":          func(s *Spec) { s.PrivFrac = nan },
		"+Inf SweepSteady":      func(s *Spec) { s.SweepSteady = inf },
		"NaN ThinkCycles":       func(s *Spec) { s.ThinkCycles = nan },
		"+Inf ThinkCycles":      func(s *Spec) { s.ThinkCycles = inf },
		"negative ThinkCycles":  func(s *Spec) { s.ThinkCycles = -1 },
	} {
		s := specFor(t, TPCH)
		mut(&s)
		if s.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestScaledFloors(t *testing.T) {
	s := specFor(t, TPCW).Scaled(1 << 20)
	if s.Blocks < 4096 || s.HotBlocksPriv < 64 || s.SharedHotBlocks < 256 || s.RefsPerTx < 1000 {
		t.Errorf("scaling floors violated: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("extreme scale invalid: %v", err)
	}
	// Scale 1 is identity.
	a, b := specFor(t, TPCW).Scaled(1), specFor(t, TPCW)
	if a.Blocks != b.Blocks || a.HotBlocksPriv != b.HotBlocksPriv ||
		a.SharedHotBlocks != b.SharedHotBlocks || a.RefsPerTx != b.RefsPerTx {
		t.Error("Scaled(1) changed the spec")
	}
}

func TestByName(t *testing.T) {
	for _, s := range Specs() {
		got, err := ByName(s.Name)
		if err != nil || got.Class != s.Class {
			t.Errorf("ByName(%q) = %v, %v", s.Name, got.Class, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{TPCW: "TPC-W", SPECjbb: "SPECjbb", TPCH: "TPC-H", SPECweb: "SPECweb"}
	for c, n := range want {
		if c.String() != n {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(specFor(t, SPECjbb).Scaled(64), 4, 42)
	b := NewGenerator(specFor(t, SPECjbb).Scaled(64), 4, 42)
	for i := 0; i < 10000; i++ {
		th := i % 4
		if a.Next(th) != b.Next(th) {
			t.Fatalf("streams diverged at ref %d", i)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := NewGenerator(specFor(t, SPECjbb).Scaled(64), 4, 1)
	b := NewGenerator(specFor(t, SPECjbb).Scaled(64), 4, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next(0) == b.Next(0) {
			same++
		}
	}
	if same > 500 {
		t.Errorf("different seeds nearly identical: %d/1000 equal", same)
	}
}

func TestGeneratorBlocksInRange(t *testing.T) {
	for _, c := range All() {
		g := NewGenerator(specFor(t, c).Scaled(64), 4, 7)
		fp := g.FootprintBlocks()
		for i := 0; i < 50000; i++ {
			a := g.Next(i % 4)
			if a.Block >= fp {
				t.Fatalf("%v: block %d outside footprint %d", c, a.Block, fp)
			}
		}
	}
}

func TestGeneratorPrivateDisjointAcrossThreads(t *testing.T) {
	g := NewGenerator(specFor(t, TPCW).Scaled(64), 4, 9)
	seen := make(map[uint64]int)
	for i := 0; i < 200000; i++ {
		th := i % 4
		a := g.Next(th)
		if g.RegionOf(a.Block) != RegionPrivate {
			continue
		}
		if prev, ok := seen[a.Block]; ok && prev != th {
			t.Fatalf("private block %d touched by threads %d and %d", a.Block, prev, th)
		}
		seen[a.Block] = th
	}
}

func TestMigratoryBurstEndsWithWrite(t *testing.T) {
	spec := specFor(t, TPCH).Scaled(64)
	g := NewGenerator(spec, 1, 11)
	inBurst := false
	var burstBlock uint64
	writesSeen := 0
	for i := 0; i < 100000; i++ {
		a := g.Next(0)
		mig := g.RegionOf(a.Block) == RegionMigratory
		if mig {
			if inBurst && a.Block != burstBlock {
				t.Fatal("burst switched blocks mid-episode")
			}
			burstBlock = a.Block
			inBurst = !a.Write
			if a.Write {
				writesSeen++
			}
		} else if inBurst {
			t.Fatal("burst interrupted by non-migratory access")
		}
	}
	if writesSeen == 0 {
		t.Error("no migratory writes observed")
	}
}

func TestScanReadsPerBlock(t *testing.T) {
	spec := specFor(t, TPCH).Scaled(64)
	g := NewGenerator(spec, 4, 13)
	counts := map[uint64]int{}
	for i := 0; i < 400000; i++ {
		a := g.Next(i % 4)
		if g.RegionOf(a.Block) == RegionScan {
			counts[a.Block]++
			if a.Write {
				t.Fatal("scan access was a write")
			}
		}
	}
	if len(counts) == 0 {
		t.Fatal("no scan accesses")
	}
	// Most visited blocks should have been read about K times (the last
	// cursor position may be mid-flight).
	k := spec.ScanReadsPerBlock
	exact := 0
	for _, n := range counts {
		if n >= k {
			exact++
		}
	}
	if frac := float64(exact) / float64(len(counts)); frac < 0.8 {
		t.Errorf("only %.2f of scan blocks read >= %d times", frac, k)
	}
}

func TestRegionClassification(t *testing.T) {
	g := NewGenerator(specFor(t, SPECweb).Scaled(64), 4, 17)
	regions := map[Region]bool{}
	for i := 0; i < 300000; i++ {
		a := g.Next(i % 4)
		regions[g.RegionOf(a.Block)] = true
	}
	for _, r := range []Region{RegionPrivate, RegionShared, RegionMigratory, RegionScan} {
		if !regions[r] {
			t.Errorf("region %d never touched", r)
		}
	}
}

func TestRefsAndTransactions(t *testing.T) {
	spec := specFor(t, SPECjbb).Scaled(64)
	g := NewGenerator(spec, 2, 19)
	for i := 0; i < 3000; i++ {
		g.Next(0)
	}
	for i := 0; i < 2000; i++ {
		g.Next(1)
	}
	if g.Refs(0) != 3000 || g.Refs(1) != 2000 || g.TotalRefs() != 5000 {
		t.Errorf("refs = %d/%d/%d", g.Refs(0), g.Refs(1), g.TotalRefs())
	}
	if want := 5000 / uint64(spec.RefsPerTx); g.Transactions() != want {
		t.Errorf("Transactions = %d, want %d", g.Transactions(), want)
	}
}

// TestPeekContract pins what the engines' lookahead relies on: peeking
// any number of times, on any thread, moves nothing — consumed counts,
// per-thread RNG streams, the shared sampling cursors and the stream
// itself all match an un-peeked twin — a successful peek is exactly the
// next Next, and it fails exactly when the ring is drained (before the
// first draw and after every genBatch-th), never refilling early.
func TestPeekContract(t *testing.T) {
	spec := specFor(t, SPECjbb).Scaled(64)
	const threads = 3
	peeked, twin := NewGenerator(spec, threads, 23), NewGenerator(spec, threads, 23)
	for i := 0; i < 3*genBatch+17; i++ {
		for th := 0; th < threads; th++ {
			if th == 1 && i%3 != 0 {
				continue // uneven consumption: thread 1 lags
			}
			var next Access
			var known bool
			for n := 0; n <= i%4; n++ {
				for o := 0; o < threads; o++ {
					a, ok := peeked.Peek(o)
					if drained := peeked.Refs(o)%genBatch == 0; ok == drained {
						t.Fatalf("ref %d thread %d: Peek ok=%v with %d consumed", i, o, ok, peeked.Refs(o))
					}
					if o == th {
						next, known = a, ok
					}
				}
			}
			got, want := peeked.Next(th), twin.Next(th)
			if got != want {
				t.Fatalf("ref %d thread %d: peeked stream drew %+v, twin %+v", i, th, got, want)
			}
			if known && next != got {
				t.Fatalf("ref %d thread %d: Peek promised %+v, Next drew %+v", i, th, next, got)
			}
		}
		for th := 0; th < threads; th++ {
			if peeked.Refs(th) != twin.Refs(th) || peeked.rngs[th] != twin.rngs[th] {
				t.Fatalf("ref %d thread %d: refs %d/%d or RNG state diverged", i, th, peeked.Refs(th), twin.Refs(th))
			}
		}
		if peeked.TotalRefs() != twin.TotalRefs() || peeked.scanCount != twin.scanCount || peeked.sharedCold != twin.sharedCold {
			t.Fatalf("ref %d: totals or shared cursors diverged", i)
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	spec := specFor(t, TPCH)
	for _, fn := range []func(){
		func() { NewGenerator(spec, 0, 1) },
		func() { bad := spec; bad.Blocks = -1; NewGenerator(bad, 4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid generator construction did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestLayoutRegionsCoverAndDisjoint(t *testing.T) {
	f := func(seedRaw uint16) bool {
		for _, c := range All() {
			s := Specs()[c].Scaled(int(seedRaw%128) + 1)
			l := layoutFor(s, 4)
			// Regions tile [0, total) in order without overlap.
			if l.sharedBase != l.privPerThread*4 {
				return false
			}
			if l.migBase != l.sharedBase+l.sharedLen {
				return false
			}
			if l.scanBase != l.migBase+l.migLen {
				return false
			}
			if l.total != l.scanBase+l.scanLen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWriteFractionApproximate(t *testing.T) {
	spec := specFor(t, SPECjbb).Scaled(64)
	g := NewGenerator(spec, 4, 21)
	writes, n := 0, 300000
	for i := 0; i < n; i++ {
		if g.Next(i % 4).Write {
			writes++
		}
	}
	frac := float64(writes) / float64(n)
	if frac <= 0 || frac > 0.35 {
		t.Errorf("overall write fraction %v implausible", frac)
	}
}

func TestSpecRegionOfMatchesGenerator(t *testing.T) {
	spec := specFor(t, TPCH).Scaled(64)
	g := NewGenerator(spec, 4, 3)
	regions := spec.Regions(4)
	for i := 0; i < 20000; i++ {
		a := g.Next(i % 4)
		if regions.Of(a.Block) != g.RegionOf(a.Block) {
			t.Fatalf("spec/generator region disagree for block %d", a.Block)
		}
	}
}

func TestRegionNames(t *testing.T) {
	want := map[Region]string{
		RegionPrivate: "private", RegionShared: "shared",
		RegionMigratory: "migratory", RegionScan: "scan",
	}
	for r, n := range want {
		if RegionName(r) != n {
			t.Errorf("RegionName(%d) = %q", r, RegionName(r))
		}
	}
	if RegionName(Region(99)) != "unknown" {
		t.Error("unknown region not handled")
	}
}

func TestTableIITargetsComplete(t *testing.T) {
	for _, c := range All() {
		tg := TableII()[c]
		if tg.C2CAll <= 0 || tg.BlocksK <= 0 || tg.TxDescribe == "" {
			t.Errorf("%v: incomplete Table II target %+v", c, tg)
		}
		if d := tg.C2CClean + tg.C2CDirty; d < 0.99 || d > 1.01 {
			t.Errorf("%v: clean+dirty = %v, want 1", c, d)
		}
	}
}
