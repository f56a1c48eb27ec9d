package main

import (
	"math"
	"sort"
)

// timing summarises repeated measurements of one quantity: quartiles,
// extremes and the sample count.
//
// The metric taken from a host timing is its quartile on the fast side
// (Q1 of a time, Q3 of a rate), not the median. Interference on a
// shared host only ever slows a rep, in bursts of a second or two, so
// the slow half of a run's reps is mostly the neighbours' doing. Sizing
// measured it: over ten runs of thirty reps the median's interquartile
// spread was 3.6% of its value, the fast quartile's 1.4%. Counts that
// repeat (allocations) use the median.
type timing struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize returns the quartiles, extremes and count of xs (the zero
// timing for an empty slice). xs is not modified.
func summarize(xs []float64) timing {
	if len(xs) == 0 {
		return timing{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return timing{
		Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1], N: len(s),
	}
}

// quantile returns the p-quantile of sorted by linear interpolation at
// position p*(n+1), clamped to the extremes (the method of Python's
// statistics.quantiles, which the driver judges spreads with).
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n+1)
	lo := int(pos)
	if lo < 1 {
		return sorted[0]
	}
	if lo >= n {
		return sorted[n-1]
	}
	return sorted[lo-1] + (pos-float64(lo))*(sorted[lo]-sorted[lo-1])
}

// geomean returns the geometric mean of the positive values in xs (0
// when there are none).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ratio returns num/den, or 0 for a zero denominator: a per-layer
// metric that is undefined on a workload reads 0 there.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// relErr returns |got-want|/|want|; any deviation from a zero
// reference counts as 1, matching the equivalence harness.
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(got-want) / math.Abs(want)
}
