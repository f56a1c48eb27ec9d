// Interval-sampled simulation.
//
// Detailed simulation of the full measurement budget is the figure
// suite's dominant cost, yet the per-VM metrics it reports are means
// over a (mostly stationary) reference stream: a fraction of the stream
// measured in detail estimates them to within a quantifiable confidence
// interval. The sampled mode (cfg.Sample) therefore alternates:
//
//   - detailed windows: the unmodified event loop — every reference pays
//     mesh latency and bank, directory and memory-controller contention,
//     advances simulated time and accumulates measurement counters;
//   - functional fast-forward: references stream through the same access
//     walk under ffTiming (access.go), so caches, the directory and the
//     directory caches keep evolving — but no contention state, no
//     event-queue cycles and no measurement counters move, and simulated
//     time stands still.
//
// The warm-up is sampled the same way (warmUp): one detailed pilot
// window, then the rest of WarmupRefs fast-forwarded.
//
// After each window the engine folds that window's per-VM miss rate and
// cycles-per-transaction into incremental Welford accumulators
// (internal/stats) and stops early once every metric's relative 95% CI
// half-width is below cfg.Sample.CITarget — the live convergence
// detection of Pac-Sim (PAPERS.md), driving the same counters the obs
// registry publishes. Fast-forward consumes references from the same
// sources as the detailed loop and draws no think times, so sampled runs
// are deterministic for a fixed (seed, window-config) pair.
//
// Result.Cycles remains the sum of detailed window spans (fast-forward
// takes zero simulated time), so every downstream metric formula —
// cycles-per-transaction, miss rates over detailed refs, latency means —
// is unchanged; only the estimator's variance is new, and SampleStats
// records exactly how much was skipped and how converged the estimate
// was.
package core

import (
	"fmt"
	"math"
	"time"

	"consim/internal/stats"
	"consim/internal/vm"
)

// SampleConfig enables and parameterizes interval sampling. The zero
// value (WindowRefs == 0) disables it: runs are detailed end to end and
// bit-identical to a build without the sampling engine.
type SampleConfig struct {
	// WindowRefs is the detailed-window length in per-core references;
	// non-zero enables sampling.
	WindowRefs uint64 `json:"window_refs,omitempty"`
	// FFRatio is the functional fast-forward length between windows, as
	// a multiple of WindowRefs (default 4: 20% of the stream detailed).
	FFRatio int `json:"ff_ratio,omitempty"`
	// CITarget is the convergence goal: the run stops once every per-VM
	// metric's relative 95% CI half-width is at or below it (default
	// 0.05).
	CITarget float64 `json:"ci_target,omitempty"`
	// MinWindows is the smallest window count convergence may stop at
	// (default 4; floor 2 — a single window has no variance estimate).
	MinWindows int `json:"min_windows,omitempty"`
	// MaxRefs bounds detailed measurement references per core; reaching
	// it stops the run whether or not the CIs converged (default
	// MeasureRefs).
	MaxRefs uint64 `json:"max_refs,omitempty"`
}

// Enabled reports whether sampling is on.
func (sc SampleConfig) Enabled() bool { return sc.WindowRefs > 0 }

// withDefaults fills unset knobs (NewSystem applies this before the
// config is stored, so results and manifests record effective values).
func (sc SampleConfig) withDefaults(measureRefs uint64) SampleConfig {
	if !sc.Enabled() {
		return SampleConfig{}
	}
	if sc.FFRatio <= 0 {
		sc.FFRatio = 4
	}
	if sc.CITarget <= 0 {
		sc.CITarget = 0.05
	}
	if sc.MinWindows < 2 {
		sc.MinWindows = 4
	}
	if sc.MaxRefs == 0 || sc.MaxRefs > measureRefs {
		sc.MaxRefs = measureRefs
	}
	return sc
}

// Sampling stop reasons.
const (
	StopConverged = "converged"
	StopBudget    = "budget"
)

// SampleStats reports what the sampling engine did during a run; all
// fields are zero for a detailed (unsampled) run.
type SampleStats struct {
	// Windows is the number of detailed windows simulated.
	Windows int `json:"windows,omitempty"`
	// DetailedRefs and SkippedRefs count per-core references measured in
	// detail and fast-forwarded between windows, in the same units as
	// Config.MeasureRefs (multiply by active cores for machine totals).
	DetailedRefs uint64 `json:"detailed_refs,omitempty"`
	SkippedRefs  uint64 `json:"skipped_refs,omitempty"`
	// WarmupDetailedRefs and WarmupFunctionalRefs split a sampled run's
	// warm-up, in Config.WarmupRefs' units (what the slowest core issued;
	// faster cores issue proportionally more): the detailed pilot window,
	// then the functional fast-forward. They sum to at least WarmupRefs.
	// Neither is part of DetailedRefs or SkippedRefs.
	WarmupDetailedRefs   uint64 `json:"warmup_detailed_refs,omitempty"`
	WarmupFunctionalRefs uint64 `json:"warmup_functional_refs,omitempty"`
	// AchievedRelCI is the worst (largest) per-VM relative 95% CI
	// half-width over both tracked metrics at stop.
	AchievedRelCI float64 `json:"achieved_rel_ci,omitempty"`
	// StopReason is StopConverged or StopBudget.
	StopReason string `json:"stop_reason,omitempty"`
}

// Provenance is the one-line account of a sampled run that the CLIs
// print beside its estimates.
func (sa SampleStats) Provenance() string {
	return fmt.Sprintf("sampled: %d windows, %d refs/core detailed, %d fast-forwarded (%s; rel 95%% CI %.3f); warm-up: %d detailed + %d functional refs/core",
		sa.Windows, sa.DetailedRefs, sa.SkippedRefs, sa.StopReason, sa.AchievedRelCI,
		sa.WarmupDetailedRefs, sa.WarmupFunctionalRefs)
}

// validateSample rejects configurations the sampling engine cannot run
// soundly: fast-forward holds simulated time still, so timeslice
// rotation, which is keyed to cycle counts, would silently measure
// something else.
func (c Config) validateSample() error {
	if !c.Sample.Enabled() {
		return nil
	}
	if c.TotalThreads() > c.Cores {
		return fmt.Errorf("core: sampling is incompatible with over-committed scheduling")
	}
	if c.Sample.FFRatio < 0 {
		return fmt.Errorf("core: negative fast-forward ratio %d", c.Sample.FFRatio)
	}
	// NaN compares false against every CI, so the run could only ever
	// stop on budget; +Inf would stop it after MinWindows whatever the
	// estimate. Neither is a target.
	if t := c.Sample.CITarget; t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("core: CI target %g is not a finite non-negative number", t)
	}
	return nil
}

// warmUp runs the warm-up phase. A detailed run, and a sampled one whose
// warm-up is no longer than a window, issue all WarmupRefs through the
// detailed engine. Otherwise the detailed engine would spend on
// references nothing measures — half of a sampled run's wall at the
// benchmark's geometry — so a sampled run warms the way it skips: one
// detailed pilot window of P = WindowRefs references per core primes the
// mesh, bank and memory-controller timing state and measures each core's
// reference rate r_c, and the remaining WarmupRefs − P go through the
// fast-forward path with budgets (WarmupRefs − P) · r_c / min r. The
// warm-up contract is unchanged — every active core issues at least
// WarmupRefs references, faster cores proportionally more — now as
// detailed plus functional references; the sampled windows then count
// their targets from P.
func (s *System) warmUp(lane int) {
	total, sc := s.cfg.WarmupRefs, s.cfg.Sample
	if !sc.Enabled() {
		s.runUntil(total)
		return
	}
	pilot := min(sc.WindowRefs, total)
	s.runUntil(pilot)
	s.sample.WarmupDetailedRefs = pilot
	if pilot == total {
		return
	}
	// fastForward's machinery apportions perCore·nActive references in
	// proportion to ffRate, so the slowest core — the one that ended the
	// pilot, at exactly P references — gets its WarmupRefs − P when
	// perCore·nActive·P ≥ (WarmupRefs − P)·Σr.
	s.ffRate = make([]uint64, len(s.cores))
	var sum uint64
	for c := range s.cores {
		if s.cores[c].active {
			s.ffRate[c] = s.cores[c].refs
			sum += s.ffRate[c]
		}
	}
	den := uint64(s.activeCores) * pilot
	endFF := s.phase(lane, "fastforward")
	bud, elapsed := s.ffRun(((total-pilot)*sum + den - 1) / den)
	endFF()
	s.phaseProf.WarmupFFSeconds = elapsed
	s.sample.WarmupFunctionalRefs = ^uint64(0)
	for c := range s.cores {
		if s.cores[c].active {
			s.sample.WarmupFunctionalRefs = min(s.sample.WarmupFunctionalRefs, bud[c])
		}
	}
}

// runSampled is the sampled measurement phase: detailed windows with
// functional fast-forward between them, stopping on CI convergence or
// the detailed-reference budget. The caller has already run warm-up and
// reset measurement counters.
func (s *System) runSampled(lane int) {
	sc := s.cfg.Sample
	nVM := len(s.vms)
	// Per-VM, per-metric incremental accumulators and last-window counter
	// bases. One allocation set per run, nothing per reference.
	missW := make([]stats.Welford, nVM)
	cptW := make([]stats.Welford, nVM)
	prevRefs := make([]uint64, nVM)
	prevLLC := make([]uint64, nVM)
	refsPerTx := make([]float64, nVM)
	for v, m := range s.vms {
		refsPerTx[v] = float64(m.Gen.Spec().RefsPerTx)
	}

	prevCoreRefs := make([]uint64, len(s.cores))
	target := s.sample.WarmupDetailedRefs
	for {
		windowStart := s.now
		target += sc.WindowRefs
		simBefore := s.simSeconds
		endW := s.phase(lane, "window")
		s.runUntil(target)
		s.phaseProf.SampleDetailedSeconds += s.simSeconds - simBefore
		s.sample.Windows++
		s.sample.DetailedRefs += sc.WindowRefs
		span := float64(s.now - windowStart)

		// Record each core's detailed-window reference rate so the next
		// fast-forward preserves the VMs' relative progress (the shared
		// window span makes refs-per-window proportional to refs-per-cycle).
		if s.ffRate == nil {
			s.ffRate = make([]uint64, len(s.cores))
		}
		for c := range s.cores {
			s.ffRate[c] = s.cores[c].refs - prevCoreRefs[c]
			prevCoreRefs[c] = s.cores[c].refs
		}

		// Fold this window's per-VM metrics into the accumulators.
		for v, m := range s.vms {
			dRefs := m.Stats.Refs - prevRefs[v]
			dLLC := m.Stats.LLCMisses - prevLLC[v]
			prevRefs[v] = m.Stats.Refs
			prevLLC[v] = m.Stats.LLCMisses
			if dRefs == 0 {
				continue // VM idle this window (no scheduled threads)
			}
			missW[v].Add(float64(dLLC) / float64(dRefs))
			cptW[v].Add(span * refsPerTx[v] / float64(dRefs))
		}

		// Convergence: every tracked metric's relative CI at or below
		// target once enough windows accumulated.
		worst := 0.0
		for v := range s.vms {
			if ci := missW[v].RelCI95(); ci > worst {
				worst = ci
			}
			if ci := cptW[v].RelCI95(); ci > worst {
				worst = ci
			}
		}
		s.sample.AchievedRelCI = worst
		if s.hooks != nil {
			// The row that carries the window's CI closes the window.
			s.publishLive()
		}
		endW()
		if s.sample.Windows >= sc.MinWindows && worst <= sc.CITarget {
			s.sample.StopReason = StopConverged
			return
		}
		if s.sample.DetailedRefs >= sc.MaxRefs {
			s.sample.StopReason = StopBudget
			return
		}

		endFF := s.phase(lane, "fastforward")
		s.fastForward(sc.WindowRefs * uint64(sc.FFRatio))
		endFF()
	}
}

// fastForward skips perCore references per active core between two
// detailed windows and books them as skipped. The warm-up's fast-forward
// (warmUp) is booked to the warm-up phase instead, so SkippedRefs,
// SampleFFSeconds and the ff cost ratio derived from them keep meaning
// "what skipping between windows costs".
func (s *System) fastForward(perCore uint64) {
	_, elapsed := s.ffRun(perCore)
	s.sample.SkippedRefs += perCore
	s.phaseProf.SampleFFSeconds += elapsed
}

// ffRun streams perCore references per active core through the
// functional plane: the workload sources supply them exactly as in a
// detailed window, the access walk runs under ffTiming, and nothing
// timing-visible moves — no event queue, no simulated time, no
// think-time draws, no measurement counters. References rotate
// round-robin across cores; with sampling validated against
// over-commitment each core carries exactly one runnable, so the
// rotation covers every thread exactly like the detailed loop's
// reference budget does. It returns the per-core budgets it issued
// (scratch, good until the next call) and the host seconds it took,
// which it has already added to the run's simulation time.
func (s *System) ffRun(perCore uint64) ([]uint64, float64) {
	start := time.Now()
	if s.ffStats == nil {
		s.ffStats = make([]vm.Stats, len(s.vms))
	}
	bud := s.ffBudgets(perCore)
	if s.ffOracle {
		// The plain rotation, kept compiled as the warm supply's
		// bit-identity oracle (warm_test.go) and benchmark baseline.
		ffLoop(s, bud)
	} else {
		s.warmForward(bud)
	}
	elapsed := time.Since(start).Seconds()
	s.simSeconds += elapsed
	return bud, elapsed
}

// ffBudgets apportions the fast-forward budget (perCore references per
// active core) across the active cores in proportion to each core's
// reference count in the last detailed window. A uniform rotation biases
// the skipped stream toward slow-CPI VMs — they receive the same share
// fast-forwarded that they conspicuously failed to issue in detail — so
// their footprint is over-warmed and fast VMs' under-warmed at window
// entry. Proportional budgets preserve the VMs' relative progress
// through the skipped stream. Uniform before the first detailed window
// completes. Largest-remainder rounding keeps the total exact, with core
// index breaking remainder ties deterministically.
func (s *System) ffBudgets(perCore uint64) []uint64 {
	if s.ffBudget == nil {
		s.ffBudget = make([]uint64, len(s.cores))
	}
	bud := s.ffBudget
	var nActive int
	var sum uint64
	for c := range s.cores {
		bud[c] = 0
		if s.cores[c].active {
			nActive++
			if s.ffRate != nil {
				sum += s.ffRate[c]
			}
		}
	}
	if sum == 0 {
		for c := range s.cores {
			if s.cores[c].active {
				bud[c] = perCore
			}
		}
		return bud
	}
	total := perCore * uint64(nActive)
	assigned := uint64(0)
	for c := range s.cores {
		if s.cores[c].active {
			bud[c] = total * s.ffRate[c] / sum
			assigned += bud[c]
		}
	}
	var picked uint64 // the floor deficit is < nActive, so one bump per core suffices
	for assigned < total {
		best, bestRem := -1, uint64(0)
		for c := range s.cores {
			if !s.cores[c].active || picked&(1<<uint(c)) != 0 {
				continue
			}
			if rem := total * s.ffRate[c] % sum; best < 0 || rem > bestRem {
				best, bestRem = c, rem
			}
		}
		picked |= 1 << uint(best)
		bud[best]++
		assigned++
	}
	return bud
}

// ffLoop is fastForward's reference loop (the ffOracle path): a
// Bresenham interleave issues each core's budget spread evenly across
// the longest budget's rounds, so cores advance through the skipped
// stream at their proportional rates instead of in per-core bursts.
// Uniform budgets degenerate to exactly one reference per core per
// round — the rotation the detailed loop's reference budget implies.
func ffLoop(s *System, bud []uint64) {
	var rounds uint64
	for c := range s.cores {
		if s.cores[c].active && bud[c] > rounds {
			rounds = bud[c]
		}
	}
	for i := uint64(0); i < rounds; i++ {
		for c := range s.cores {
			cs := &s.cores[c]
			if !cs.active {
				continue
			}
			for k := (i+1)*bud[c]/rounds - i*bud[c]/rounds; k > 0; k-- {
				run := cs.queue[cs.cur]
				m := s.vms[run.vmID]
				acc := m.Gen.Next(run.thread)
				m.Touch(acc.Block)
				accessTM(s, ffTiming, c, run.vmID, m.AddrOf(acc.Block), acc.Write)
			}
		}
	}
}
