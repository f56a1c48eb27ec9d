package obs

// PhaseProfile decomposes one run's simulation wall time by engine
// phase. It is the per-run, machine-readable form of the Amdahl
// analysis that previously lived only as a hand-computed note next to
// a bench record: the core engines time their phases during the run
// and Result/manifests carry the decomposition, so "where did the wall
// time go" is answerable for any recorded run, not just a bench sweep.
//
// All fields are wall seconds measured inside the simulation loop (the
// same clock as Result.WallSeconds), so the warmup/measure split sums
// to the measured wall time up to loop bookkeeping. Report renders the
// residual as "untracked" and the covered fraction as "coverage".
type PhaseProfile struct {
	// WarmupSeconds and MeasureSeconds split the run's simulation wall
	// time at the measurement boundary (every engine).
	WarmupSeconds  float64 `json:"warmup_seconds,omitempty"`
	MeasureSeconds float64 `json:"measure_seconds,omitempty"`
	// WarmupFFSeconds is the part of WarmupSeconds a sampled run spent
	// in its warm-up's functional fast-forward (the rest is the detailed
	// pilot window). Not part of SampleFFSeconds, which stays the cost
	// of skipping between measured windows.
	WarmupFFSeconds float64 `json:"warmup_ff_seconds,omitempty"`

	// PdesReplaySeconds is the split-transaction parallel engine's
	// (core.Config.Pdes) serial barrier op replay: the Amdahl term that
	// bounds its scaling, inside the warmup/measure split.
	PdesReplaySeconds float64 `json:"pdes_replay_seconds,omitempty"`

	// Interval-sampling engine (-sample): wall time in detailed windows
	// vs. functional fast-forward.
	SampleDetailedSeconds float64 `json:"sample_detailed_seconds,omitempty"`
	SampleFFSeconds       float64 `json:"sample_ff_seconds,omitempty"`
}

// Engine names the engine the profile describes ("pdes", "sample", or
// "" for the sequential engine).
func (p *PhaseProfile) Engine() string {
	switch {
	case p.PdesReplaySeconds > 0:
		return "pdes"
	case p.SampleDetailedSeconds > 0 || p.SampleFFSeconds > 0:
		return "sample"
	}
	return ""
}

// Zero reports whether the profile carries no measurements (telemetry
// was off or the run predates phase accounting).
func (p *PhaseProfile) Zero() bool {
	return p.WarmupSeconds == 0 && p.MeasureSeconds == 0 && p.Engine() == ""
}

// TrackedSeconds sums the phase terms that should account for the
// run's simulation wall time: the warmup/measure split, which every
// engine records and which the engine-specific terms subdivide.
func (p *PhaseProfile) TrackedSeconds() float64 {
	return p.WarmupSeconds + p.MeasureSeconds
}

// FFCostRatio returns a sampled run's fast-forward cost: host wall time
// per fast-forwarded reference over host wall time per detailed
// reference, from the detailed/ff split (the warm-up's pilot window and
// fast-forward are in neither side). The ratio is the sampling engine's
// Amdahl term — at a given window geometry the end-to-end speedup is
// bounded by detailed + ratio*skipped. Zero for detailed runs and for
// sampled runs that never fast-forwarded.
func (p *PhaseProfile) FFCostRatio(detailedRefs, skippedRefs uint64) float64 {
	if detailedRefs == 0 || skippedRefs == 0 || p.SampleDetailedSeconds <= 0 || p.SampleFFSeconds <= 0 {
		return 0
	}
	detPerRef := p.SampleDetailedSeconds / float64(detailedRefs)
	ffPerRef := p.SampleFFSeconds / float64(skippedRefs)
	return ffPerRef / detPerRef
}

// ApplyFraction returns the serial barrier-replay share of wall
// seconds — the Amdahl term bounding parallel-engine scaling (0 when
// not pdes).
func (p *PhaseProfile) ApplyFraction(wallSeconds float64) float64 {
	if wallSeconds <= 0 {
		return 0
	}
	return p.PdesReplaySeconds / wallSeconds
}
