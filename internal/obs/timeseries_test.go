package obs

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// TestTimeSeriesRoundTrip records two rows, writes them inside a
// manifest record and reads them back column by column.
func TestTimeSeriesRoundTrip(t *testing.T) {
	s := NewSeries(2, 0)
	s.Begin(TSPhaseWarmup, 1000, 0.5, 3, -1)
	s.VM(0, 8192, 0.02, 5400)
	s.VM(1, 4096, 0.10, 9100.5)

	s.Begin(TSPhaseMeasure, 2000, 1.25, 0, 0.04)
	s.VM(0, 8192, math.NaN(), math.Inf(1)) // zero-transaction window
	s.VM(1, 0, 0, 1e300)                   // beyond float32
	if s.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", s.Rows())
	}

	path := filepath.Join(t.TempDir(), "m.jsonl")
	w, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Manifest{Label: "shared/affinity", Series: s}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ms, err := ReadManifests(path)
	if err != nil {
		t.Fatal(err)
	}
	got := ms[0].Series
	if got == nil || got.Rows() != 2 {
		t.Fatalf("decoded series = %+v", got)
	}
	if !reflect.DeepEqual(got.Phase, []TSPhase{TSPhaseWarmup, TSPhaseMeasure}) ||
		!reflect.DeepEqual(got.Cycle, []uint64{1000, 2000}) ||
		!reflect.DeepEqual(got.Wall, []float32{0.5, 1.25}) ||
		!reflect.DeepEqual(got.MemQ, []uint32{3, 0}) ||
		!reflect.DeepEqual(got.RelCI, []float32{-1, 0.04}) {
		t.Fatalf("scalar columns = %+v", got)
	}
	if !reflect.DeepEqual(got.Refs, [][]uint64{{8192, 8192}, {4096, 0}}) ||
		got.Miss[1][0] != 0.10 || got.CPT[1][0] != 9100.5 {
		t.Fatalf("VM columns = refs %v miss %v cpt %v", got.Refs, got.Miss, got.CPT)
	}
	// NaN and infinities are stored as -1, so the record stays valid JSON.
	if got.Miss[0][1] != -1 || got.CPT[0][1] != -1 || got.CPT[1][1] != -1 {
		t.Fatalf("non-finite values = miss %v cpt %v %v, want -1", got.Miss[0][1], got.CPT[0][1], got.CPT[1][1])
	}
}

// TestTimeSeriesGrowsPastPrealloc records past the preallocated rows
// and checks every row survives in order.
func TestTimeSeriesGrowsPastPrealloc(t *testing.T) {
	const capacity, total = 4, 11
	s := NewSeries(1, capacity)
	for i := range total {
		s.Begin(TSPhaseMeasure, uint64(i)*100, float64(i), i, -1)
		s.VM(0, uint64(i), 0.5, 100)
	}
	if s.Rows() != total || len(s.Refs[0]) != total {
		t.Fatalf("recorded %d rows (%d refs), want %d", s.Rows(), len(s.Refs[0]), total)
	}
	for i := range total {
		if s.Cycle[i] != uint64(i)*100 || s.Refs[0][i] != uint64(i) || s.MemQ[i] != uint32(i) {
			t.Fatalf("row %d out of order: cycle %d refs %d memq %d", i, s.Cycle[i], s.Refs[0][i], s.MemQ[i])
		}
	}
}

// TestRecorderZeroAllocSteadyState pins the recording hot path at zero
// allocations: Begin/VM within the preallocated rows must be pure
// column appends, or -timeseries would break the simulator's
// steady-state allocation budget.
func TestRecorderZeroAllocSteadyState(t *testing.T) {
	s := NewSeries(4, 1<<12)
	var i uint64
	allocs := testing.AllocsPerRun(1000, func() {
		s.Begin(TSPhaseMeasure, i, float64(i), 5, -1)
		for v := 0; v < 4; v++ {
			s.VM(v, i, 0.02, 5000)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("recording path allocates %.1f/row, want 0", allocs)
	}
}

func TestTSPhaseNames(t *testing.T) {
	for _, name := range []string{"warmup", "measure", "window", "fastforward", "snapshot"} {
		p := TSPhaseOf(name)
		if got := p.String(); got != name {
			t.Errorf("TSPhaseOf(%q).String() = %q", name, got)
		}
		text, _ := p.MarshalText()
		var back TSPhase
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Errorf("%q: text round trip gave %v, %v", name, back, err)
		}
	}
	if TSPhaseOf("no-such-phase") != TSPhaseOther {
		t.Errorf("unknown phase did not map to other")
	}
	if TSPhase(250).String() != "other" {
		t.Errorf("out-of-range phase did not render as other")
	}
}
