package harness

import (
	"fmt"
	"math"

	"consim/internal/core"
)

// Statistical equivalence of sampled and detailed simulation.
//
// A sampled run estimates the same per-VM metrics a detailed run
// measures exactly; the contract is that the estimate's error stays
// within the confidence interval the sampling engine itself reports.
// This file compares the two modes per run (VM-level metrics) and turns
// the comparison into the pass/fail predicate the sample-accuracy and
// pdes-equivalence CI jobs gate on.

// VMDelta is one VM's sampled-vs-detailed deviation on the two metrics
// the sampling engine tracks for convergence.
type VMDelta struct {
	VM   int     `json:"vm"`
	Name string  `json:"name"`
	Miss float64 `json:"miss_rel_err"` // |sampled-full|/full LLC miss rate
	Cpt  float64 `json:"cpt_rel_err"`  // |sampled-full|/full cycles per transaction
}

// RunComparison is the result of running one configuration both ways.
type RunComparison struct {
	Full    core.Result
	Sampled core.Result
	Deltas  []VMDelta
	// MaxRelErr is the largest per-VM relative error over both metrics.
	MaxRelErr float64
	// Bound is the error budget the comparison is judged against:
	// 2 x max(CITarget, achieved CI) — twice the half-width, covering
	// the full-run estimator's own variance on top of the sampled one's.
	Bound float64
}

// Within reports whether every per-VM deviation is inside the bound.
func (c RunComparison) Within() bool { return c.MaxRelErr <= c.Bound }

// runCfg builds cfg's machine and runs it.
func runCfg(cfg core.Config) (core.Result, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	return sys.Run()
}

// diffRuns reports got's per-VM deviations from ref on the two tracked
// metrics. VMs with zero reference-run references (never scheduled) are
// skipped.
func diffRuns(ref, got core.Result) (RunComparison, error) {
	out := RunComparison{Full: ref, Sampled: got}
	if len(ref.VMs) != len(got.VMs) {
		return out, fmt.Errorf("harness: VM count mismatch %d vs %d", len(ref.VMs), len(got.VMs))
	}
	for v := range ref.VMs {
		f, s := ref.VMs[v], got.VMs[v]
		if f.Stats.Refs == 0 {
			continue
		}
		d := VMDelta{
			VM:   f.VM,
			Name: f.Name,
			Miss: relErr(s.MissRate(), f.MissRate()),
			Cpt:  relErr(s.CyclesPerTx, f.CyclesPerTx),
		}
		out.Deltas = append(out.Deltas, d)
		out.MaxRelErr = math.Max(out.MaxRelErr, math.Max(d.Miss, d.Cpt))
	}
	return out, nil
}

// compareTo runs cfg and judges it against ref, a reference run the
// caller already has (so one reference can judge several variants).
func compareTo(ref core.Result, cfg core.Config, bound float64) (RunComparison, error) {
	got, err := runCfg(cfg)
	if err != nil {
		return RunComparison{Full: ref}, err
	}
	out, err := diffRuns(ref, got)
	out.Bound = bound
	return out, err
}

// CompareSampledRun executes cfg fully detailed and again under sc, and
// reports the per-VM metric deviations.
func CompareSampledRun(cfg core.Config, sc core.SampleConfig) (RunComparison, error) {
	cfg.Sample = core.SampleConfig{}
	full, err := runCfg(cfg)
	if err != nil {
		return RunComparison{}, err
	}
	cfg.Sample = sc
	out, err := compareTo(full, cfg, 0)
	out.Bound = sampleBound(out.Sampled.Config.Sample.CITarget, out.Sampled.Sample.AchievedRelCI)
	return out, err
}

// relErr returns |got-want|/|want|; an exact match of a zero reference
// is 0, any deviation from zero is reported as 1 (100%).
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(got-want) / math.Abs(want)
}

// sampleBound is the declared error budget for a sampled estimate:
// twice the larger of the configured target and the achieved CI. The
// factor of two covers the detailed reference's own run-to-run variance
// (both sides estimate a stochastic workload's mean) and turns the 95%
// half-width into a bound deviations should essentially never exceed.
func sampleBound(target, achieved float64) float64 {
	b := math.Max(target, achieved)
	if b <= 0 || math.IsInf(b, 1) || math.IsNaN(b) {
		b = 1
	}
	return 2 * b
}

// DefaultPdesBound is the error budget parallel (pdes) runs are judged
// against (TestParallelEquivalence, the benchmark's mix4_s16_pdes2):
// the worst per-VM relative deviation on the tracked metrics must stay
// below it. The parallel engine's error source is bounded cross-domain
// staleness (one window), not sampling variance, so the bound is a fixed
// engineering tolerance rather than a CI-derived quantity; measured
// deviations at the default window sit under half of it across the
// workload classes.
const DefaultPdesBound = 0.12
