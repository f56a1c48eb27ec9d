package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleOf(xs ...float64) *Sample {
	s := &Sample{}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func TestEmptySampleSafe(t *testing.T) {
	s := &Sample{}
	if s.Mean() != 0 || s.Var() != 0 || s.CI95() != 0 || s.CV() != 0 || s.N() != 0 {
		t.Error("empty sample not zero-safe")
	}
}

func TestMeanVar(t *testing.T) {
	s := sampleOf(2, 4, 4, 4, 5, 5, 7, 9)
	if s.Mean() != 5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if got := s.Var(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Var = %v", got)
	}
}

func TestSingleObservation(t *testing.T) {
	s := sampleOf(42)
	if s.Mean() != 42 || s.Var() != 0 || s.CI95() != 0 {
		t.Error("single-observation stats wrong")
	}
}

func TestCI95KnownCase(t *testing.T) {
	// n=2, stddev = sqrt(2)/... : xs = {0, 2}: mean 1, var 2, sd 1.4142.
	s := sampleOf(0, 2)
	want := 12.706 * math.Sqrt2 / math.Sqrt2 // t(df=1) * sd / sqrt(2)
	if got := s.CI95(); math.Abs(got-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

func TestCI95LargeSampleUsesNormal(t *testing.T) {
	s := &Sample{}
	for i := 0; i < 100; i++ {
		s.Add(float64(i % 2))
	}
	sd := s.Stddev()
	want := 1.96 * sd / 10
	if got := s.CI95(); math.Abs(got-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

func TestCV(t *testing.T) {
	s := sampleOf(10, 10, 10)
	if s.CV() != 0 {
		t.Error("constant sample has nonzero CV")
	}
	if sampleOf(-1, 1).CV() != 0 { // mean 0 guard
		t.Error("zero-mean CV not guarded")
	}
}

func TestCachesInvalidateOnAdd(t *testing.T) {
	// Interleave reads and Adds: every derived statistic must match a
	// freshly-built sample at each step, so the cache can never serve a
	// stale value after a mutation.
	xs := []float64{5, 1, 9, 3, 7, 2, 8}
	s := &Sample{}
	for i, x := range xs {
		s.Add(x)
		fresh := sampleOf(xs[:i+1]...)
		if s.Mean() != fresh.Mean() {
			t.Fatalf("after %d adds: Mean = %v, want %v", i+1, s.Mean(), fresh.Mean())
		}
		if s.Var() != fresh.Var() {
			t.Fatalf("after %d adds: Var = %v, want %v", i+1, s.Var(), fresh.Var())
		}
		if s.CI95() != fresh.CI95() {
			t.Fatalf("after %d adds: CI95 = %v, want %v", i+1, s.CI95(), fresh.CI95())
		}
	}
}

func TestRepeatedReadsDoNotAllocate(t *testing.T) {
	// The harness formats each sample several times per report; every
	// read is allocation-free.
	s := sampleOf(5, 1, 9, 3, 7, 2, 8, 4)
	allocs := testing.AllocsPerRun(100, func() {
		_ = s.Mean()
		_ = s.Var()
		_ = s.CV()
		_ = s.CI95()
	})
	if allocs != 0 {
		t.Errorf("cached statistic reads allocate: %v allocs/run", allocs)
	}
}

func TestMeanBetweenMinMaxProperty(t *testing.T) {
	f := func(raw []float64) bool {
		s := &Sample{}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Keep magnitudes sane to avoid float overflow in Var.
			x = math.Mod(x, 1e6)
			s.Add(x)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= lo-1e-9 && m <= hi+1e-9 && s.Var() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
