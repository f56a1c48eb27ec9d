package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// -compare A.json B.json judges document B against document A by the
// bounds A was written under. It is the benchmark's self-agreement check
// (two runs of one commit must pass it) and what a later change pastes.

// worsening returns how much worse b is than a as a share of a, signed
// so that positive is worse, for a metric whose better direction is
// given.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// breaches reports whether b is worse than a by more than the metric's
// bound, ignoring absolute differences below its floor.
func breaches(m docMetric, a, b float64) bool {
	if math.Abs(b-a) < m.Floor {
		return false
	}
	return worsening(a, b, m.Better) > m.Bound
}

// sameExact reports whether two optional exact statistics agree: both
// absent, or both present and equal.
func sameExact(a, b *float64) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

func loadDocument(path string) (document, error) {
	var d document
	buf, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(buf, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if d.Benchmark != "consim" || len(d.Workloads) == 0 {
		return d, fmt.Errorf("%s: not a benchmark -all document", path)
	}
	return d, nil
}

// compareFiles loads two documents and compares them.
func compareFiles(w io.Writer, pathA, pathB string) (breached bool, err error) {
	a, err := loadDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadDocument(pathB)
	if err != nil {
		return false, err
	}
	return compareDocs(w, a, b)
}

// compareDocs prints the per-(workload, metric) change from a to b
// against each metric's bound and reports whether anything breached:
// a timing beyond its bound, any rise in failed operations, or any
// difference in a statistic that is exact per (seed, knobs). It refuses
// quick documents, which are smoke runs, and documents of different
// seeds, whose exact statistics legitimately differ.
func compareDocs(w io.Writer, a, b document) (bool, error) {
	if a.Quick || b.Quick {
		return false, fmt.Errorf("refusing to gate on a -quick document: it is a smoke run")
	}
	if a.Seed != b.Seed {
		return false, fmt.Errorf("documents were taken with different seeds (%d, %d)", a.Seed, b.Seed)
	}
	fmt.Fprintf(w, "A: %s go %s, %d CPUs, GOMAXPROCS %d\n", a.Host.GitRev, a.Host.GoVersion, a.Host.NumCPU, a.Host.GOMAXPROCS)
	fmt.Fprintf(w, "B: %s go %s, %d CPUs, GOMAXPROCS %d\n", b.Host.GitRev, b.Host.GoVersion, b.Host.NumCPU, b.Host.GOMAXPROCS)
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	breached := false
	mark := func(bad bool) string {
		if bad {
			breached = true
			return "  BREACH"
		}
		return ""
	}
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb.Name == "" {
			fmt.Fprintf(w, "%-18s missing from B%s\n", wa.Name, mark(true))
			continue
		}
		for _, m := range a.EndToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-18s %-16s not measured on both sides%s\n", wa.Name, m.Name, mark(true))
				continue
			}
			fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", wa.Name, m.Name, va.Value, vb.Value,
				100*worsening(va.Value, vb.Value, m.Better), 100*m.Bound, mark(breaches(m, va.Value, vb.Value)))
		}
		fmt.Fprintf(w, "%-18s %-16s %14.4g %14.4g%s\n", wa.Name, "failed_frac", wa.FailedFrac, wb.FailedFrac,
			mark(wb.FailedFrac > wa.FailedFrac))
		exact := wa.StatsDigest == wb.StatsDigest && sameExact(wa.MaxRelErr, wb.MaxRelErr) && sameExact(wa.Table2Err, wb.Table2Err)
		fmt.Fprintf(w, "%-18s %-16s %14s %14s%s\n", wa.Name, "stats_digest", wa.StatsDigest, wb.StatsDigest, mark(!exact))
	}
	if breached {
		fmt.Fprintln(w, "result: BREACH (a model change moves stats_digest on purpose and says so; anything else is a regression)")
	} else {
		fmt.Fprintln(w, "result: within bounds")
	}
	return breached, nil
}
