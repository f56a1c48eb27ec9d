package stats

import (
	"math"
	"math/rand"
	"testing"
)

// closeEnough compares with a relative tolerance scaled to the values'
// magnitude (Welford and the two-pass oracle take different floating-
// point paths, so exact equality is not the contract).
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// TestWelfordMatchesOracle streams random values of wildly different
// scales through both implementations and requires mean, variance,
// stddev and CI to agree at every prefix length.
func TestWelfordMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	scales := []float64{1e-6, 1, 1e6, 1e9}
	for _, scale := range scales {
		var w Welford
		var s Sample
		for i := 0; i < 500; i++ {
			x := (rng.Float64() - 0.5) * scale
			w.Add(x)
			s.Add(x)
			if w.N() != s.N() {
				t.Fatalf("scale %g n=%d: count mismatch %d vs %d", scale, i+1, w.N(), s.N())
			}
			if !closeEnough(w.Mean(), s.Mean()) {
				t.Fatalf("scale %g n=%d: mean %g vs oracle %g", scale, i+1, w.Mean(), s.Mean())
			}
			if !closeEnough(w.Var(), s.Var()) {
				t.Fatalf("scale %g n=%d: var %g vs oracle %g", scale, i+1, w.Var(), s.Var())
			}
			if !closeEnough(w.CI95(), s.CI95()) {
				t.Fatalf("scale %g n=%d: ci95 %g vs oracle %g", scale, i+1, w.CI95(), s.CI95())
			}
		}
	}
}

// TestWelfordEdgeCases pins the degenerate behaviours the sampled
// engine's convergence check relies on.
func TestWelfordEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var w Welford
		if w.N() != 0 || w.Mean() != 0 || w.Var() != 0 || w.CI95() != 0 || w.RelCI95() != 0 {
			t.Fatalf("empty accumulator not all-zero: %+v", w)
		}
	})
	t.Run("single sample", func(t *testing.T) {
		var w Welford
		w.Add(17.5)
		if w.Mean() != 17.5 {
			t.Fatalf("mean %g want 17.5", w.Mean())
		}
		if w.Var() != 0 || w.CI95() != 0 || w.RelCI95() != 0 {
			t.Fatalf("single sample must have zero spread: var=%g ci=%g", w.Var(), w.CI95())
		}
	})
	t.Run("zero variance", func(t *testing.T) {
		var w Welford
		for i := 0; i < 100; i++ {
			w.Add(3.25)
		}
		if w.Mean() != 3.25 {
			t.Fatalf("constant stream mean %g want 3.25", w.Mean())
		}
		if w.Var() != 0 {
			t.Fatalf("constant stream variance %g want exactly 0", w.Var())
		}
		if w.RelCI95() != 0 {
			t.Fatalf("constant stream rel CI %g want 0", w.RelCI95())
		}
	})
	t.Run("all-zero metric converges", func(t *testing.T) {
		var w Welford
		for i := 0; i < 10; i++ {
			w.Add(0)
		}
		if w.RelCI95() != 0 {
			t.Fatalf("identically-zero metric must report rel CI 0, got %g", w.RelCI95())
		}
	})
	t.Run("zero mean with spread never converges", func(t *testing.T) {
		var w Welford
		w.Add(-1)
		w.Add(1)
		if !math.IsInf(w.RelCI95(), 1) {
			t.Fatalf("zero-mean spread must report +Inf rel CI, got %g", w.RelCI95())
		}
	})
	t.Run("negative variance clamp", func(t *testing.T) {
		var w Welford
		// Near-identical huge values provoke cancellation in m2.
		for i := 0; i < 1000; i++ {
			w.Add(1e15 + float64(i%2)*1e-3)
		}
		if w.Var() < 0 || math.IsNaN(w.Stddev()) {
			t.Fatalf("variance must clamp non-negative: var=%g stddev=%g", w.Var(), w.Stddev())
		}
	})
}
