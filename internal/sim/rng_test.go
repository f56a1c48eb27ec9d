package sim

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(9)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v too far from 0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) covered only %d values", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewRNG(1).Uint64n(0)
}

func TestRNGBoolExtremes(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate %v", p)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(13)
	a := root.Split()
	b := root.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split streams collided %d times", same)
	}
}

func TestRNGUniformityProperty(t *testing.T) {
	// Property: over any modulus, bucket counts stay near uniform.
	check := func(seed uint64) bool {
		r := NewRNG(seed)
		const buckets, n = 16, 16000
		counts := make([]int, buckets)
		for i := 0; i < n; i++ {
			counts[r.Intn(buckets)]++
		}
		for _, c := range counts {
			if math.Abs(float64(c)-n/buckets) > 200 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestZipfBounds(t *testing.T) {
	r := NewRNG(17)
	z := NewZipf(1000, 0.8)
	for i := 0; i < 10000; i++ {
		v := z.Sample(r)
		if v >= 1000 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	r := NewRNG(19)
	z := NewZipf(100000, 0.9)
	low := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if z.Sample(r) < 1000 {
			low++
		}
	}
	// With theta 0.9 the top 1% of ranks should carry far more than 1%
	// of the mass.
	if frac := float64(low) / n; frac < 0.2 {
		t.Errorf("top 1%% of ranks got only %.3f of mass", frac)
	}
}

func TestZipfHigherThetaMoreSkew(t *testing.T) {
	sample := func(theta float64) float64 {
		r := NewRNG(23)
		z := NewZipf(10000, theta)
		low := 0
		for i := 0; i < 50000; i++ {
			if z.Sample(r) < 100 {
				low++
			}
		}
		return float64(low) / 50000
	}
	if sample(0.9) <= sample(0.3) {
		t.Error("higher theta did not concentrate more mass on low ranks")
	}
}

func TestZipfThetaOneRemapped(t *testing.T) {
	// theta == 1 must not blow up the closed form.
	r := NewRNG(29)
	z := NewZipf(100, 1)
	for i := 0; i < 1000; i++ {
		if v := z.Sample(r); v >= 100 {
			t.Fatalf("sample %d out of range", v)
		}
	}
}

func TestZipfSingleElement(t *testing.T) {
	r := NewRNG(31)
	z := NewZipf(1, 0.8)
	for i := 0; i < 100; i++ {
		if z.Sample(r) != 0 {
			t.Fatal("Zipf over one element must return 0")
		}
	}
}

func TestZipfAliasMatchesAnalyticMasses(t *testing.T) {
	// The alias table must reproduce the inverse-CDF approximation's
	// per-rank masses p_k = ((k+2)^(1-t) - (k+1)^(1-t)) / ((n+1)^(1-t) - 1).
	const n, theta, draws = 64, 0.8, 400_000
	om := 1 - theta
	hiM1 := math.Pow(n+1, om) - 1
	r := NewRNG(37)
	z := NewZipf(n, theta)
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	for k := 0; k < n; k++ {
		want := (math.Pow(float64(k+2), om) - math.Pow(float64(k+1), om)) / hiM1
		got := float64(counts[k]) / draws
		// 5-sigma binomial tolerance plus an absolute floor for tiny masses.
		tol := 5*math.Sqrt(want*(1-want)/draws) + 1e-4
		if math.Abs(got-want) > tol {
			t.Errorf("rank %d: freq %.5f, want %.5f (tol %.5f)", k, got, want, tol)
		}
	}
}

// TestZipfSlotPacked: an alias slot is its three 32-bit words, so the
// paper-scale tables take 12 bytes a rank, not 16.
func TestZipfSlotPacked(t *testing.T) {
	if got := unsafe.Sizeof(zipfSlot{}); got != 12 {
		t.Fatalf("zipfSlot is %d bytes, want 12", got)
	}
	var s zipfSlot
	for _, th := range []uint64{0, 1, 1 << 32, 0xfedcba9876543210, ^uint64(0)} {
		if s.setThresh(th); s.thresh() != th {
			t.Errorf("threshold %#x reads back as %#x", th, s.thresh())
		}
	}
}

func TestZipfPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0) did not panic")
		}
	}()
	NewZipf(0, 0.5)
}

func TestZipfPanicsOnNaNSkew(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(n, NaN) did not panic")
		}
	}()
	NewZipf(100, math.NaN())
}

func TestLineMath(t *testing.T) {
	if LineAddr(0x1234) != 0x1200 {
		t.Errorf("LineAddr(0x1234) = %#x", LineAddr(0x1234))
	}
	if BlockID(0x1234) != 0x48 {
		t.Errorf("BlockID(0x1234) = %#x", BlockID(0x1234))
	}
	if BlockAddr(0x48) != 0x1200 {
		t.Errorf("BlockAddr(0x48) = %#x", BlockAddr(0x48))
	}
	// Roundtrip property.
	f := func(b uint64) bool {
		b &= 1<<58 - 1 // keep the shift in range
		return BlockID(BlockAddr(b)) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxMin(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max broken")
	}
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min broken")
	}
}
