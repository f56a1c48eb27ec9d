package obs

// PhaseProfile decomposes one run's simulation wall time by engine
// phase. It is the per-run, machine-readable form of the Amdahl
// analysis that previously lived only as a hand-computed note next to
// a bench record: the core engines time their phases during the run
// and Result/manifests carry the decomposition, so "where did the wall
// time go" is answerable for any recorded run, not just a bench sweep.
//
// All fields are wall seconds measured inside the simulation loop (the
// same clock as Result.WallSeconds), so the engine-specific terms sum
// to the measured wall time up to loop bookkeeping (horizon scans,
// footprint merges). Report renders the residual as "untracked" and
// the covered fraction as "coverage".
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

	// Split-transaction parallel engine (-pdes). PdesWindowSeconds is
	// spine wall time inside windows (posting work, running its own
	// domain stripe, waiting for workers); PdesReplaySeconds is the
	// serial barrier op replay (the Amdahl term); PdesBarrierSeconds is
	// the rest of the barrier (replica folds and resyncs, live metric
	// publishes); PdesStallSeconds is the subset of window time the
	// spine spent spinning on worker domains (load imbalance).
	PdesWindowSeconds  float64 `json:"pdes_window_seconds,omitempty"`
	PdesReplaySeconds  float64 `json:"pdes_replay_seconds,omitempty"`
	PdesBarrierSeconds float64 `json:"pdes_barrier_seconds,omitempty"`
	PdesStallSeconds   float64 `json:"pdes_stall_seconds,omitempty"`
	// Domains is the per-domain breakdown of in-window work. On a
	// multi-core host domains run concurrently, so busy seconds sum to
	// more than PdesWindowSeconds; the ratio is the achieved overlap.
	Domains []DomainPhase `json:"domains,omitempty"`

	// Interval-sampling engine (-sample): wall time in detailed windows
	// vs. functional fast-forward.
	SampleDetailedSeconds float64 `json:"sample_detailed_seconds,omitempty"`
	SampleFFSeconds       float64 `json:"sample_ff_seconds,omitempty"`
}

// DomainPhase is one pdes domain's share of the in-window work.
type DomainPhase struct {
	Domain int `json:"domain"`
	Cores  int `json:"cores"`
	// Cycles is how far the domain's local clock advanced; Ops the
	// shared-tier operations it logged for barrier replay.
	Cycles uint64 `json:"cycles"`
	Ops    uint64 `json:"ops"`
	// BusySeconds is wall time spent draining this domain's calendar.
	BusySeconds float64 `json:"busy_seconds"`
}

// Engine names the engine the profile describes ("pdes", "sample", or
// "" for the sequential engine).
func (p *PhaseProfile) Engine() string {
	switch {
	case len(p.Domains) > 0 || p.PdesWindowSeconds > 0:
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

// TrackedSeconds sums the engine-phase terms that should account for
// the run's simulation wall time. For pdes that is window + replay +
// barrier (stall is a subset of window time, not an addend); for the
// other engines the warmup/measure split already covers the wall.
func (p *PhaseProfile) TrackedSeconds() float64 {
	if p.Engine() == "pdes" {
		return p.PdesWindowSeconds + p.PdesReplaySeconds + p.PdesBarrierSeconds
	}
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
// seconds — the Amdahl term bounding -pdes scaling (0 when not pdes).
func (p *PhaseProfile) ApplyFraction(wallSeconds float64) float64 {
	if wallSeconds <= 0 {
		return 0
	}
	return p.PdesReplaySeconds / wallSeconds
}
