// Run reports.
//
// This file is the testable core of consim obs report. It consumes the
// run-manifest JSONL the toolchain writes (ManifestWriter), time series
// included, and renders one record for humans: its memory system,
// phase/Amdahl decomposition and time series.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// WritePhaseReport renders one manifest record: the run header, the
// memory-system ledger, the wall-time phase decomposition with its
// untracked residual and coverage (a parallel-engine record adds its
// apply fraction), and, when the record carries a time series, a per-VM
// trajectory summary.
func WritePhaseReport(w io.Writer, m Manifest) {
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
	if p.Engine() == "sample" {
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
	writeSeriesSummary(w, m.Series)
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

// writeSeriesSummary renders the per-VM trajectory summary of a run's
// time series. A VM's miss and cycles-per-transaction figures cover
// only the windows in which it issued references.
func writeSeriesSummary(w io.Writer, s *Series) {
	if s == nil || s.Rows() == 0 {
		return
	}
	if !readable(s) {
		fmt.Fprintf(w, "time series (%d rows): columns of unequal length, not summarized\n", s.Rows())
		return
	}
	phases := map[string]int{}
	for _, p := range s.Phase {
		phases[p.String()]++
	}
	names := make([]string, 0, len(phases))
	for n := range phases {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "time series (%d rows):\n  windows:", s.Rows())
	for _, n := range names {
		fmt.Fprintf(w, " %s=%d", n, phases[n])
	}
	fmt.Fprintln(w)

	for v, refs := range s.Refs {
		var total uint64
		missMin, missMax := math.Inf(1), math.Inf(-1)
		var missSum, cptSum float64
		n := 0
		for i, r := range refs {
			if r == 0 {
				continue
			}
			total += r
			ms := float64(s.Miss[v][i])
			missSum += ms
			missMin, missMax = min(missMin, ms), max(missMax, ms)
			cptSum += float64(s.CPT[v][i])
			n++
		}
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "  vm %-2d refs=%-10d miss %.4f..%.4f (mean %.4f)  cpt mean %.0f\n",
			v, total, missMin, missMax, missSum/float64(n), cptSum/float64(n))
	}
	var maxQ uint32
	var qSum float64
	for _, q := range s.MemQ {
		qSum += float64(q)
		maxQ = max(maxQ, q)
	}
	fmt.Fprintf(w, "  mem queue depth mean %.1f max %d\n", qSum/float64(len(s.MemQ)), maxQ)
}

// readable reports whether every column the summary reads holds one
// entry per row, as recording leaves it; a hand-edited record may not.
func readable(s *Series) bool {
	n := s.Rows()
	if len(s.Phase) != n || len(s.MemQ) != n || len(s.Miss) != len(s.Refs) || len(s.CPT) != len(s.Refs) {
		return false
	}
	for v := range s.Refs {
		if len(s.Refs[v]) != n || len(s.Miss[v]) != n || len(s.CPT[v]) != n {
			return false
		}
	}
	return true
}
