package vm

import (
	"strings"
	"testing"

	"consim/internal/cache"
	"consim/internal/sim"
	"consim/internal/workload"
)

func newVM(t *testing.T, base sim.Addr) *VM {
	t.Helper()
	gen := workload.NewGenerator(workload.Specs()[workload.TPCH].Scaled(64), 4, 1)
	return New(0, gen, base)
}

func TestAddrMappingRoundtrip(t *testing.T) {
	v := newVM(t, 1<<20)
	for _, b := range []uint64{0, 1, 100, 4095} {
		a := v.AddrOf(b)
		if a%sim.LineBytes != 0 {
			t.Errorf("AddrOf(%d) unaligned: %#x", b, a)
		}
		if v.BlockOf(a) != b {
			t.Errorf("roundtrip failed for block %d", b)
		}
	}
}

func TestOwns(t *testing.T) {
	v := newVM(t, 1<<20)
	if !v.Owns(v.AddrOf(0)) {
		t.Error("does not own its base")
	}
	last := v.Gen.FootprintBlocks() - 1
	if !v.Owns(v.AddrOf(last)) {
		t.Error("does not own its last block")
	}
	if v.Owns(v.AddrOf(last) + sim.LineBytes) {
		t.Error("owns past its region")
	}
	if v.Owns(0) {
		t.Error("owns below its base")
	}
}

func TestNewPanicsOnUnalignedBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned base accepted")
		}
	}()
	newVM(t, 7)
}

func TestTouchCountsDistinct(t *testing.T) {
	v := newVM(t, 0)
	v.Touch(5)
	v.Touch(5)
	v.Touch(6)
	v.Touch(1000)
	if v.TouchedBlocks() != 3 {
		t.Errorf("TouchedBlocks = %d", v.TouchedBlocks())
	}
}

func TestResetStatsKeepsFootprint(t *testing.T) {
	v := newVM(t, 0)
	v.Touch(1)
	v.Stats.Refs = 99
	v.ResetStats()
	if v.Stats.Refs != 0 {
		t.Error("stats not cleared")
	}
	if v.TouchedBlocks() != 1 {
		t.Error("footprint cleared; must be cumulative")
	}
}

// TestLayout: regions start on the alignment after the previous one ends,
// and fill the taggable address space exactly to cache.MaxLines lines —
// one VM or several — but not one line past it.
func TestLayout(t *testing.T) {
	const align = 1 << 20
	const alignLines = align / sim.LineBytes
	gen := workload.NewGenerator(workload.Specs()[workload.TPCH].Scaled(64), 4, 1)
	fp := gen.FootprintBlocks()
	bases, err := Layout([]uint64{fp, fp}, []string{"TPC-H", "TPC-H"}, align)
	if err != nil {
		t.Fatal(err)
	}
	end := sim.Addr(fp * sim.LineBytes)
	if bases[0] != 0 || bases[1]%align != 0 || bases[1] < end || bases[1]-end >= align {
		t.Errorf("bases %#x for a region ending at %#x", bases, end)
	}

	fit := func(blocks ...uint64) error {
		names := make([]string, len(blocks))
		for i := range names {
			names[i] = "synthetic"
		}
		_, err := Layout(blocks, names, align)
		return err
	}
	for _, tc := range []struct {
		blocks []uint64
		ok     bool
		want   string
	}{
		{[]uint64{cache.MaxLines}, true, ""},
		{[]uint64{cache.MaxLines + 1}, false, "VM 0 (synthetic) needs 4294967296 lines"},
		{[]uint64{1, cache.MaxLines - alignLines}, true, ""},
		{[]uint64{1, cache.MaxLines - alignLines + 1}, false, "VM 1 (synthetic)"},
		{[]uint64{1 << 31, 1 << 31}, false, "VM 1 (synthetic)"},
		{[]uint64{1, ^uint64(0)}, false, "VM 1 (synthetic)"},
	} {
		err := fit(tc.blocks...)
		if tc.ok != (err == nil) || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("footprints %d: error %v, want ok=%v mentioning %q", tc.blocks, err, tc.ok, tc.want)
		}
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	s := Stats{
		Refs: 1000, PrivMisses: 100, LLCMisses: 50,
		C2CClean: 20, C2CDirty: 10, MemReads: 25,
		MissLatSum: 5000,
	}
	if s.C2C() != 30 {
		t.Errorf("C2C = %d", s.C2C())
	}
	if s.MissRate() != 0.05 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
	if s.AvgMissLatency() != 50 {
		t.Errorf("AvgMissLatency = %v", s.AvgMissLatency())
	}
	if s.C2CFraction() != 0.3 {
		t.Errorf("C2CFraction = %v", s.C2CFraction())
	}
	if s.C2COfLLCMisses() != 0.6 {
		t.Errorf("C2COfLLCMisses = %v", s.C2COfLLCMisses())
	}
	if s.C2CDirtyShare() != 10.0/30 {
		t.Errorf("C2CDirtyShare = %v", s.C2CDirtyShare())
	}
}

func TestStatsZeroSafe(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 || s.AvgMissLatency() != 0 || s.C2CFraction() != 0 ||
		s.C2COfLLCMisses() != 0 || s.C2CDirtyShare() != 0 {
		t.Error("zero stats not zero-safe")
	}
}

func TestVMIdentity(t *testing.T) {
	v := newVM(t, 0)
	if v.Name() != "TPC-H" || v.Class() != workload.TPCH {
		t.Errorf("identity = %s/%v", v.Name(), v.Class())
	}
}
