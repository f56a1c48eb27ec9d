package workload

// Phase support implements the paper's §VII future-work item: "by doing
// some phase analysis and aligning different combinations of phases from
// different workloads ... one can study the interactions in more depth.
// Such an analysis would give an indication of the range of
// interference."
//
// A phased workload cycles through a list of Phase descriptors, each of
// which scales the base reference mix for a stretch of execution (e.g. a
// scan-heavy phase followed by an update-heavy phase). A per-generator
// phase offset lets the experimenter align or misalign the phases of
// co-scheduled workloads.

import "fmt"

// Phase modulates the base reference mix for Refs references per thread.
type Phase struct {
	Name string
	// Refs is the phase length in references per thread.
	Refs uint64
	// Multipliers scale the base mix probabilities during this phase
	// (1 = unchanged). The private fraction absorbs the remainder; if
	// the scaled probabilities exceed 1 they are renormalized.
	SharedMul, MigMul, ScanMul float64
	// WriteMul scales both write fractions.
	WriteMul float64
	// SweepMul scales the steady private-sweep rate — the workload's
	// streaming cache pressure — so phases can alternate between
	// cache-quiet and cache-hostile behaviour.
	SweepMul float64
}

// Validate reports whether the phase is usable.
func (p Phase) Validate() error {
	if p.Refs == 0 {
		return fmt.Errorf("workload: phase %q with zero length", p.Name)
	}
	for _, m := range []float64{p.SharedMul, p.MigMul, p.ScanMul, p.WriteMul, p.SweepMul} {
		if m < 0 {
			return fmt.Errorf("workload: phase %q with negative multiplier", p.Name)
		}
	}
	return nil
}

// WithPhases returns a copy of the spec cycling through the given phases.
func (s Spec) WithPhases(phases ...Phase) Spec {
	out := s
	out.Phases = append([]Phase(nil), phases...)
	return out
}

// phaseMix is the effective reference mix during one phase.
type phaseMix struct {
	pShared, pMig, pScan       float64
	writeFrac, writeFracShared float64
	sweepSteady                float64
}

// mixFor computes the effective mix for phase index i (or the base mix
// when the spec has no phases).
func (s Spec) mixFor(i int) phaseMix {
	m := phaseMix{
		pShared: s.PShared, pMig: s.PMig, pScan: s.PScan,
		writeFrac: s.WriteFrac, writeFracShared: s.WriteFracShared,
		sweepSteady: s.SweepSteady,
	}
	if len(s.Phases) == 0 {
		return m
	}
	p := s.Phases[i%len(s.Phases)]
	m.pShared *= p.SharedMul
	m.pMig *= p.MigMul
	m.pScan *= p.ScanMul
	m.writeFrac = clamp01(m.writeFrac * p.WriteMul)
	m.writeFracShared = clamp01(m.writeFracShared * p.WriteMul)
	m.sweepSteady = clamp01(m.sweepSteady * p.SweepMul)
	if sum := m.pShared + m.pMig + m.pScan; sum > 1 {
		m.pShared /= sum
		m.pMig /= sum
		m.pScan /= sum
	}
	return m
}

// totalPhaseRefs returns the per-thread length of one full phase cycle.
func (s Spec) totalPhaseRefs() uint64 {
	var n uint64
	for _, p := range s.Phases {
		n += p.Refs
	}
	return n
}

// phaseAt maps a per-thread reference count (plus alignment offset) to a
// phase index.
func (s Spec) phaseAt(refs uint64) int {
	total := s.totalPhaseRefs()
	if total == 0 {
		return 0
	}
	pos := refs % total
	for i, p := range s.Phases {
		if pos < p.Refs {
			return i
		}
		pos -= p.Refs
	}
	return 0
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// TwoPhase is a convenience constructor for the classic scan/update
// alternation used by the phase-alignment studies: a read-shared,
// scan-heavy phase followed by a migratory, write-heavy phase, each
// lasting refs references per thread.
func TwoPhase(refs uint64) []Phase {
	return []Phase{
		{Name: "scan", Refs: refs, SharedMul: 1.4, MigMul: 0.3, ScanMul: 2.0, WriteMul: 0.5, SweepMul: 4.0},
		{Name: "update", Refs: refs, SharedMul: 0.6, MigMul: 2.5, ScanMul: 0.4, WriteMul: 2.0, SweepMul: 0.25},
	}
}
