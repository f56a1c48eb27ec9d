// Cross-run analysis: run reports and run diffs.
//
// This file is the testable core of consim obs. It consumes the sidecars
// the toolchain writes — run-manifest JSONL (ManifestWriter) and the
// -timeseries rows — and renders them for humans: a per-run
// memory-system and phase/Amdahl report, and a two-run regression diff.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// ApplyFractionGate is the absolute apply-fraction growth (in fraction
// points) past which a pdes run counts as regressed: the serial replay
// share is deterministic per configuration, so five points of growth is
// structural, not noise.
const ApplyFractionGate = 0.05

// ---------------------------------------------------------------------
// Phase report

// WritePhaseReport renders one manifest record: the run header, the
// memory-system ledger, the wall-time phase decomposition with its
// untracked residual and coverage, the per-domain imbalance breakdown,
// and — when rows from the run's time-series sidecar are supplied — a
// per-VM trajectory summary. rows may span many runs; only those matching the manifest's
// TimeseriesRun are used.
func WritePhaseReport(w io.Writer, m Manifest, rows []TSRow) {
	engine := "sequential"
	var p PhaseProfile
	if m.Phase != nil {
		p = *m.Phase
		if e := p.Engine(); e != "" {
			engine = e
		}
	}
	fmt.Fprintf(w, "run %s  engine=%s  seed=%d  scale=%d\n", m.Label, engine, m.Seed, m.Scale)
	fmt.Fprintf(w, "  host: gomaxprocs=%d numcpu=%d  %s  %s\n", m.GOMAXPROCS, m.NumCPU, m.GoVersion, m.Time)
	rps := 0.0
	if m.WallSeconds > 0 {
		rps = float64(m.Refs) / m.WallSeconds
	}
	fmt.Fprintf(w, "  cost: refs=%d cycles=%d wall=%.3fs (%.0f refs/sec)\n", m.Refs, m.Cycles, m.WallSeconds, rps)
	if m.Layers != nil {
		writeLayers(w, *m.Layers, m.SampleWindows > 0)
	}

	if m.Phase == nil {
		fmt.Fprintf(w, "  no phase profile recorded (pre-v%d manifest or telemetry off)\n", ManifestVersion)
		return
	}

	pct := func(sec float64) float64 {
		if m.WallSeconds <= 0 {
			return 0
		}
		return 100 * sec / m.WallSeconds
	}
	fmt.Fprintf(w, "phase decomposition (wall seconds):\n")
	fmt.Fprintf(w, "  %-14s %8.3fs %5.1f%%\n", "warmup", p.WarmupSeconds, pct(p.WarmupSeconds))
	if m.SampleWarmupFunctionalRefs > 0 {
		fmt.Fprintf(w, "  %-14s %8.3fs %5.1f%%   warm-up: %d detailed + %d functional refs/core\n",
			"  fast-forward", p.WarmupFFSeconds, pct(p.WarmupFFSeconds), m.SampleWarmupDetailedRefs, m.SampleWarmupFunctionalRefs)
	}
	fmt.Fprintf(w, "  %-14s %8.3fs %5.1f%%\n", "measure", p.MeasureSeconds, pct(p.MeasureSeconds))
	switch p.Engine() {
	case "pdes":
		fmt.Fprintf(w, "  %-14s %8.3fs %5.1f%%   (stall %.3fs, %.1f%%)\n",
			"in-window", p.PdesWindowSeconds, pct(p.PdesWindowSeconds), p.PdesStallSeconds, pct(p.PdesStallSeconds))
		fmt.Fprintf(w, "  %-14s %8.3fs %5.1f%%   serial op replay (Amdahl term)\n",
			"replay", p.PdesReplaySeconds, pct(p.PdesReplaySeconds))
		fmt.Fprintf(w, "  %-14s %8.3fs %5.1f%%   folds, resyncs, publishes\n",
			"barrier", p.PdesBarrierSeconds, pct(p.PdesBarrierSeconds))
	case "sample":
		fmt.Fprintf(w, "  %-14s %8.3fs %5.1f%%   (%d refs/core measured)\n",
			"detailed", p.SampleDetailedSeconds, pct(p.SampleDetailedSeconds), m.SampleDetailedRefs)
		fmt.Fprintf(w, "  %-14s %8.3fs %5.1f%%   (%d refs/core skipped)\n",
			"fast-forward", p.SampleFFSeconds, pct(p.SampleFFSeconds), m.SampleSkippedRefs)
		if r := p.FFCostRatio(m.SampleDetailedRefs, m.SampleSkippedRefs); r > 0 {
			det := p.SampleDetailedSeconds / float64(m.SampleDetailedRefs)
			fmt.Fprintf(w, "  ff cost ratio %.2fx  (%.0fns/ref ff vs %.0fns/ref detailed; lower is better)\n",
				r, r*det*1e9, det*1e9)
		}
	}
	tracked := p.TrackedSeconds()
	untracked := m.WallSeconds - tracked
	if untracked < 0 {
		untracked = 0
	}
	cov := 0.0
	if m.WallSeconds > 0 {
		cov = 100 * tracked / m.WallSeconds
		if cov > 100 {
			cov = 100
		}
	}
	fmt.Fprintf(w, "  %-14s %8.3fs %5.1f%%   (coverage %.1f%% of wall)\n", "untracked", untracked, pct(untracked), cov)
	if af := p.ApplyFraction(m.WallSeconds); af > 0 {
		fmt.Fprintf(w, "  apply fraction %.3f -> Amdahl speedup bound %.1fx\n", af, 1/af)
	}
	if len(p.Domains) > 0 {
		fmt.Fprintf(w, "domains (in-window busy; concurrent, so busy may exceed window time):\n")
		for _, d := range p.Domains {
			share := 0.0
			if p.PdesWindowSeconds > 0 {
				share = 100 * d.BusySeconds / p.PdesWindowSeconds
			}
			fmt.Fprintf(w, "  dom %-2d cores=%-2d cycles=%-12d ops=%-10d busy=%.3fs (%.0f%% of window)\n",
				d.Domain, d.Cores, d.Cycles, d.Ops, d.BusySeconds, share)
		}
	}
	writeSeriesSummary(w, m, rows)
}

// writeLayers renders the memory-system ledger; sampled says the cache
// counters include fast-forwarded references.
func writeLayers(w io.Writer, l Layers, sampled bool) {
	label := "memory system (measurement window):"
	if sampled {
		label = "memory system (measurement window; cache counters include fast-forwarded references):"
	}
	fmt.Fprintln(w, label)
	pct := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}
	for i, name := range [3]string{"L0", "L1", "LLC"} {
		c := l.Cache[i]
		fmt.Fprintf(w, "  %-4s accesses=%-12d misses=%-11d (%5.2f%%)  evictions=%d\n",
			name, c.Accesses, c.Misses, pct(c.Misses, c.Accesses), c.Evictions)
	}
	fmt.Fprintf(w, "  directory entries=%d  dircache hits=%d misses=%d (%.1f%% hit, whole run)\n",
		l.DirEntries, l.DirCacheHits, l.DirCacheMisses, pct(l.DirCacheHits, l.DirCacheHits+l.DirCacheMisses))
	wait := 0.0
	if l.MemReads > 0 {
		wait = float64(l.MemWaitCycles) / float64(l.MemReads)
	}
	fmt.Fprintf(w, "  memctrl   reads=%d writebacks=%d wait=%d cycles (%.1f/read)\n",
		l.MemReads, l.MemWritebacks, l.MemWaitCycles, wait)
}

// writeSeriesSummary renders the per-VM trajectory summary for the
// manifest's rows in the time-series sidecar.
func writeSeriesSummary(w io.Writer, m Manifest, rows []TSRow) {
	if m.TimeseriesRun == 0 {
		return
	}
	var mine []TSRow
	for _, r := range rows {
		if r.Run == m.TimeseriesRun {
			mine = append(mine, r)
		}
	}
	if len(mine) == 0 {
		fmt.Fprintf(w, "time series: run %d recorded %d rows, none loaded (sidecar %q)\n",
			m.TimeseriesRun, m.TimeseriesRows, m.Timeseries)
		return
	}
	phases := map[string]int{}
	for _, r := range mine {
		phases[r.Phase]++
	}
	names := make([]string, 0, len(phases))
	for n := range phases {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "time series (run %d, %d rows):\n  windows:", m.TimeseriesRun, len(mine))
	for _, n := range names {
		fmt.Fprintf(w, " %s=%d", n, phases[n])
	}
	fmt.Fprintln(w)

	nVM := 0
	for _, r := range mine {
		if len(r.Refs) > nVM {
			nVM = len(r.Refs)
		}
	}
	for v := 0; v < nVM; v++ {
		var refs uint64
		missMin, missMax := math.Inf(1), math.Inf(-1)
		var missSum, cptSum float64
		n := 0
		for _, r := range mine {
			if v >= len(r.Refs) {
				continue
			}
			refs += r.Refs[v]
			if ms := r.Miss[v]; ms >= 0 {
				missSum += ms
				if ms < missMin {
					missMin = ms
				}
				if ms > missMax {
					missMax = ms
				}
			}
			if c := r.CPT[v]; c >= 0 {
				cptSum += c
			}
			n++
		}
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "  vm %-2d refs=%-10d miss %.4f..%.4f (mean %.4f)  cpt mean %.0f\n",
			v, refs, missMin, missMax, missSum/float64(n), cptSum/float64(n))
	}
	var maxQ uint32
	var qSum float64
	for _, r := range mine {
		qSum += float64(r.MemQ)
		if r.MemQ > maxQ {
			maxQ = r.MemQ
		}
	}
	fmt.Fprintf(w, "  mem queue depth mean %.1f max %d\n", qSum/float64(len(mine)), maxQ)
}

// ---------------------------------------------------------------------
// Diff

// RunSummary is the engine-agnostic comparison surface `obs diff`
// extracts from a manifest record. Absent metrics are NaN so a diff
// only compares what both sides measured.
type RunSummary struct {
	Name string
	Time string

	WallSeconds   float64
	RefsPerSec    float64
	ApplyFraction float64 // pdes serial-replay share of wall
	StallSeconds  float64 // pdes spine stall
	SampleRelCI   float64 // sampled runs only
	FFCostRatio   float64 // sampled runs only: ff cost per skipped ref vs detailed
}

func absent() float64 { return math.NaN() }

// SummarizeManifest reduces one manifest record to its comparison
// surface.
func SummarizeManifest(m Manifest) RunSummary {
	s := RunSummary{
		Name:          m.Label,
		Time:          m.Time,
		WallSeconds:   m.WallSeconds,
		RefsPerSec:    absent(),
		ApplyFraction: absent(),
		StallSeconds:  absent(),
		SampleRelCI:   absent(),
		FFCostRatio:   absent(),
	}
	if m.WallSeconds > 0 && m.Refs > 0 {
		s.RefsPerSec = float64(m.Refs) / m.WallSeconds
	}
	switch {
	case m.Phase != nil && m.Phase.Engine() == "pdes":
		s.ApplyFraction = m.Phase.ApplyFraction(m.WallSeconds)
		s.StallSeconds = m.Phase.PdesStallSeconds
	case m.PdesWorkers > 0 && m.WallSeconds > 0:
		s.ApplyFraction = m.PdesApplySeconds / m.WallSeconds
		s.StallSeconds = m.PdesStallSeconds
	}
	if m.SampleWindows > 0 {
		s.SampleRelCI = m.SampleRelCI
		if m.Phase != nil {
			if r := m.Phase.FFCostRatio(m.SampleDetailedRefs, m.SampleSkippedRefs); r > 0 {
				s.FFCostRatio = r
			}
		}
	}
	return s
}

// ReadRunSummaries loads every run of the manifest JSONL file at path;
// a file with no records is an error, since nothing can be diffed
// against it.
func ReadRunSummaries(path string) ([]RunSummary, error) {
	ms, err := ReadManifests(path)
	if err != nil {
		return nil, err
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("%s: no manifest records", path)
	}
	out := make([]RunSummary, len(ms))
	for i, m := range ms {
		out[i] = SummarizeManifest(m)
	}
	return out, nil
}

// DiffSummaries renders a comparison of base (old) vs cur (new) and
// returns the number of regressions beyond the thresholds: throughput
// down by more than thresh (fractional, e.g. 0.05), apply fraction up
// by more than ApplyFractionGate points, ff cost ratio up by more than
// FFCostGateFrac relative.
func DiffSummaries(w io.Writer, base, cur RunSummary, thresh float64) int {
	fmt.Fprintf(w, "base: %s (%s)\n cur: %s (%s)\n", base.Name, base.Time, cur.Name, cur.Time)
	regressions := 0
	flag := func(bad bool, why string) string {
		if !bad {
			return ""
		}
		regressions++
		return "  REGRESSION: " + why
	}
	both := func(a, b float64) bool { return !math.IsNaN(a) && !math.IsNaN(b) }

	if both(base.WallSeconds, cur.WallSeconds) && base.WallSeconds > 0 {
		d := (cur.WallSeconds - base.WallSeconds) / base.WallSeconds
		fmt.Fprintf(w, "  %-16s %10.3f -> %10.3f  (%+.1f%%)\n", "wall_seconds", base.WallSeconds, cur.WallSeconds, 100*d)
	}
	if both(base.RefsPerSec, cur.RefsPerSec) && base.RefsPerSec > 0 {
		d := (cur.RefsPerSec - base.RefsPerSec) / base.RefsPerSec
		fmt.Fprintf(w, "  %-16s %10.0f -> %10.0f  (%+.1f%%)%s\n", "refs_per_sec", base.RefsPerSec, cur.RefsPerSec, 100*d,
			flag(d < -thresh, fmt.Sprintf("throughput down %.1f%% (threshold %.0f%%)", -100*d, 100*thresh)))
	}
	if both(base.ApplyFraction, cur.ApplyFraction) {
		d := cur.ApplyFraction - base.ApplyFraction
		fmt.Fprintf(w, "  %-16s %10.3f -> %10.3f  (%+.1f pts)%s\n", "apply_fraction", base.ApplyFraction, cur.ApplyFraction, 100*d,
			flag(d > ApplyFractionGate, fmt.Sprintf("serial replay share up %.1f points (gate %.0f)", 100*d, 100*ApplyFractionGate)))
	}
	if both(base.StallSeconds, cur.StallSeconds) {
		fmt.Fprintf(w, "  %-16s %10.3f -> %10.3f\n", "stall_seconds", base.StallSeconds, cur.StallSeconds)
	}
	if both(base.SampleRelCI, cur.SampleRelCI) {
		fmt.Fprintf(w, "  %-16s %10.4f -> %10.4f\n", "sample_rel_ci", base.SampleRelCI, cur.SampleRelCI)
	}
	if both(base.FFCostRatio, cur.FFCostRatio) && base.FFCostRatio > 0 {
		d := (cur.FFCostRatio - base.FFCostRatio) / base.FFCostRatio
		fmt.Fprintf(w, "  %-16s %10.3f -> %10.3f  (%+.1f%%)%s\n", "ff_cost_ratio", base.FFCostRatio, cur.FFCostRatio, 100*d,
			flag(d > FFCostGateFrac, fmt.Sprintf("ff cost ratio up %.1f%% (gate %.0f%%)", 100*d, 100*FFCostGateFrac)))
	}
	if regressions == 0 {
		fmt.Fprintf(w, "  no regressions beyond thresholds\n")
	}
	return regressions
}

// FFCostGateFrac is the relative growth in a sampled run's
// fast-forward cost ratio that `obs diff` flags: the ratio is
// a quotient of two wall-clock measurements, so it inherits both
// phases' run-to-run noise; 20% relative keeps the gate quiet on a
// loaded host while still catching a warming-walk deoptimization (the
// walk's whole specialization margin over the generic path is of that
// order).
const FFCostGateFrac = 0.20
