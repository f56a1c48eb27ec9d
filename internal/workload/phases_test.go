package workload

import (
	"math"
	"testing"
)

func phasedSpec(t *testing.T) Spec {
	t.Helper()
	return Specs()[TPCH].Scaled(64).WithPhases(TwoPhase(5000)...)
}

func TestPhaseValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, p := range map[string]Phase{
		"zero-length phase":   {Name: "x", Refs: 0, SharedMul: 1, MigMul: 1, ScanMul: 1, WriteMul: 1},
		"negative multiplier": {Name: "x", Refs: 10, SharedMul: -1, MigMul: 1, ScanMul: 1, WriteMul: 1},
		"NaN multiplier":      {Name: "x", Refs: 10, SharedMul: 1, MigMul: nan, ScanMul: 1, WriteMul: 1},
		"+Inf multiplier":     {Name: "x", Refs: 10, SharedMul: 1, MigMul: 1, ScanMul: inf, WriteMul: 1},
		"NaN sweep":           {Name: "x", Refs: 10, SharedMul: 1, MigMul: 1, ScanMul: 1, WriteMul: 1, SweepMul: nan},
	} {
		if p.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	spec := phasedSpec(t)
	if err := spec.Validate(); err != nil {
		t.Errorf("valid phased spec rejected: %v", err)
	}
	spec.Phases[0].Refs = 0
	if spec.Validate() == nil {
		t.Error("spec with bad phase accepted")
	}
}

func TestPhaseAtMapsCycle(t *testing.T) {
	spec := Specs()[TPCH].WithPhases(
		Phase{Name: "a", Refs: 100, SharedMul: 1, MigMul: 1, ScanMul: 1, WriteMul: 1},
		Phase{Name: "b", Refs: 50, SharedMul: 1, MigMul: 1, ScanMul: 1, WriteMul: 1},
	)
	cases := map[uint64]int{0: 0, 99: 0, 100: 1, 149: 1, 150: 0, 250: 1, 300: 0}
	for refs, want := range cases {
		if got := spec.phaseAt(refs); got != want {
			t.Errorf("phaseAt(%d) = %d, want %d", refs, got, want)
		}
	}
}

func TestMixForScalesAndNormalizes(t *testing.T) {
	spec := Specs()[TPCH]
	base := spec.mixFor(0)
	if base.pShared != spec.PShared || base.pMig != spec.PMig {
		t.Error("unphased mix differs from the base spec")
	}
	spec = spec.WithPhases(Phase{Name: "hot", Refs: 10, SharedMul: 50, MigMul: 50, ScanMul: 50, WriteMul: 1})
	m := spec.mixFor(0)
	if sum := m.pShared + m.pMig + m.pScan; sum > 1.0001 {
		t.Errorf("scaled mix not renormalized: %v", sum)
	}
	spec = Specs()[TPCH].WithPhases(Phase{Name: "w", Refs: 10, SharedMul: 1, MigMul: 1, ScanMul: 1, WriteMul: 100})
	if w := spec.mixFor(0).writeFrac; w > 1 {
		t.Errorf("write fraction not clamped: %v", w)
	}
}

func TestPhasedGeneratorShiftsMix(t *testing.T) {
	spec := Specs()[TPCH].Scaled(64).WithPhases(
		Phase{Name: "scan", Refs: 20_000, SharedMul: 0, MigMul: 0, ScanMul: 5, WriteMul: 1},
		Phase{Name: "mig", Refs: 20_000, SharedMul: 0, MigMul: 5, ScanMul: 0, WriteMul: 1},
	)
	g := NewGenerator(spec, 1, 5)
	count := func(n int) (scan, mig int) {
		for i := 0; i < n; i++ {
			a := g.Next(0)
			switch g.RegionOf(a.Block) {
			case RegionScan:
				scan++
			case RegionMigratory:
				mig++
			}
		}
		return
	}
	scan1, mig1 := count(20_000) // phase "scan"
	scan2, mig2 := count(20_000) // phase "mig"
	if scan1 <= scan2 {
		t.Errorf("scan phase produced fewer scans (%d) than mig phase (%d)", scan1, scan2)
	}
	if mig2 <= mig1 {
		t.Errorf("mig phase produced fewer migratory refs (%d) than scan phase (%d)", mig2, mig1)
	}
}

func TestPhaseOffsetAlignsDifferently(t *testing.T) {
	base := Specs()[TPCH].Scaled(64).WithPhases(
		Phase{Name: "scan", Refs: 10_000, SharedMul: 0, MigMul: 0, ScanMul: 5, WriteMul: 1},
		Phase{Name: "mig", Refs: 10_000, SharedMul: 0, MigMul: 5, ScanMul: 0, WriteMul: 1},
	)
	shifted := base
	shifted.PhaseOffset = 10_000 // start in the "mig" phase

	g0 := NewGenerator(base, 1, 5)
	g1 := NewGenerator(shifted, 1, 5)
	var scan0, scan1 int
	for i := 0; i < 5000; i++ {
		if g0.RegionOf(g0.Next(0).Block) == RegionScan {
			scan0++
		}
		if g1.RegionOf(g1.Next(0).Block) == RegionScan {
			scan1++
		}
	}
	if scan0 <= scan1 {
		t.Errorf("offset did not shift phases: base %d scans, shifted %d", scan0, scan1)
	}
}

func TestUnphasedSpecsUnaffected(t *testing.T) {
	// The calibrated base specs carry no phases; the phase machinery
	// must be a strict no-op for them.
	spec := Specs()[SPECjbb].Scaled(64)
	a := NewGenerator(spec, 4, 9)
	b := NewGenerator(spec, 4, 9)
	for i := 0; i < 20_000; i++ {
		if a.Next(i%4) != b.Next(i%4) {
			t.Fatal("unphased generation not reproducible")
		}
	}
}

func TestScaledPhases(t *testing.T) {
	spec := Specs()[TPCH].WithPhases(TwoPhase(1_000_000)...)
	spec.PhaseOffset = 2_000_000
	s := spec.Scaled(100)
	if s.Phases[0].Refs != 10_000 || s.PhaseOffset != 20_000 {
		t.Errorf("phase scaling wrong: %d / %d", s.Phases[0].Refs, s.PhaseOffset)
	}
	tiny := spec.Scaled(1 << 30)
	if tiny.Phases[0].Refs < 1000 {
		t.Error("phase length floor violated")
	}
}
