package stats

import "math"

// Welford accumulates a stream's mean and variance incrementally in O(1)
// space (Welford's online algorithm). The sampled-simulation engine keeps one per (VM, metric)
// and feeds it one observation per detailed window, so the convergence
// check never re-reads the window history; Sample is the brute-force
// oracle its property tests compare against.
type Welford struct {
	n    uint64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int { return int(w.n) }

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 for n < 2). Floating-point
// cancellation can leave m2 infinitesimally negative for near-constant
// streams; it is clamped so Stddev never takes a negative square root.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	v := w.m2 / float64(w.n-1)
	if v < 0 {
		return 0
	}
	return v
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Var()) }

// CI95 returns the half-width of the 95% confidence interval for the
// mean (0 for n < 2), using the same Student-t table as Sample.CI95.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	df := int(w.n) - 1
	t := 1.96
	if df < len(tTable95) {
		t = tTable95[df]
	}
	return t * w.Stddev() / math.Sqrt(float64(w.n))
}

// RelCI95 returns CI95 relative to the mean's magnitude — the sampled
// engine's convergence criterion. A zero mean with zero spread reports 0
// (converged: the metric is identically absent); a zero mean with spread
// reports +Inf (never converged on a relative criterion).
func (w *Welford) RelCI95() float64 {
	ci := w.CI95()
	if ci == 0 {
		return 0
	}
	if w.mean == 0 {
		return math.Inf(1)
	}
	return ci / math.Abs(w.mean)
}
