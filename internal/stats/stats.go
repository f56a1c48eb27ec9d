// Package stats provides the small-sample statistics used by the
// experiment harness for multi-seed replication, following the
// statistical simulation methodology of Alameldeen & Wood (HPCA 2003)
// that the paper's §V adopts: multi-threaded runs are non-deterministic
// across perturbations, so metrics are reported as means over replicated
// runs with a confidence half-width.
package stats

import "math"

// Sample accumulates observations of one metric. The variance is cached
// between Adds: the harness formats every sample several times (mean,
// CI, CV all in one report row). The cache preserves the original
// arithmetic exactly: the mean accumulates in Add order (the same float
// additions a per-call loop would perform) and Var computes the same
// two-pass result, just at most once per mutation.
type Sample struct {
	xs  []float64
	sum float64 // running total, accumulated in Add order

	variance float64 // cached unbiased sample variance
	varOK    bool    // variance is current
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sum += x
	s.varOK = false
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Var returns the unbiased sample variance (0 for n < 2).
func (s *Sample) Var() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	if !s.varOK {
		m := s.Mean()
		sum := 0.0
		for _, x := range s.xs {
			d := x - m
			sum += d * d
		}
		s.variance = sum / float64(n-1)
		s.varOK = true
	}
	return s.variance
}

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Var()) }

// CV returns the coefficient of variation (stddev/mean), or 0 when the
// mean is 0.
func (s *Sample) CV() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.Stddev() / math.Abs(m)
}

// tTable95 holds two-sided 95% Student-t critical values for small
// degrees of freedom; beyond the table the normal 1.96 applies.
var tTable95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
}

// CI95 returns the half-width of the 95% confidence interval for the
// mean (0 for n < 2).
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	df := n - 1
	t := 1.96
	if df < len(tTable95) {
		t = tTable95[df]
	}
	return t * s.Stddev() / math.Sqrt(float64(n))
}
