package obs

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func pdesManifest() Manifest {
	return Manifest{
		Version: ManifestVersion, Label: "shared/affinity",
		GOMAXPROCS: 4, NumCPU: 8,
		Seed: 42, Scale: 16,
		Refs: 1_000_000, Cycles: 500_000, WallSeconds: 2.0,
		Phase: &PhaseProfile{
			WarmupSeconds: 0.4, MeasureSeconds: 1.6,
			PdesReplaySeconds: 0.6,
		},
	}
}

// reportSeries is a three-row series in which VM 1 issues nothing in the
// last row.
func reportSeries() *Series {
	s := NewSeries(2, 3)
	for _, r := range []struct {
		phase TSPhase
		memq  int
		refs  [2]uint64
		miss  [2]float64
		cpt   [2]float64
	}{
		{TSPhaseWarmup, 2, [2]uint64{4096, 4096}, [2]float64{0.02, 0.05}, [2]float64{5000, 9000}},
		{TSPhaseMeasure, 6, [2]uint64{8192, 8192}, [2]float64{0.03, 0.06}, [2]float64{5200, 9100}},
		{TSPhaseMeasure, 4, [2]uint64{8192, 0}, [2]float64{0.025, 0}, [2]float64{5100, 0}},
	} {
		s.Begin(r.phase, 0, 0, r.memq, -1)
		for v := range 2 {
			s.VM(v, r.refs[v], r.miss[v], r.cpt[v])
		}
	}
	return s
}

// TestWritePhaseReportPdes renders a parallel-engine record: its
// warmup/measure split covers the wall, the apply fraction is its one
// engine term, and the time series is summarized per VM.
func TestWritePhaseReportPdes(t *testing.T) {
	m := pdesManifest()
	m.Series = reportSeries()
	var b strings.Builder
	WritePhaseReport(&b, m)
	out := b.String()
	for _, want := range []string{
		"engine=pdes",
		"gomaxprocs=4",
		"  warmup ", "  measure ",
		"untracked",
		"coverage 100.0% of wall",
		"apply fraction 0.300 -> Amdahl speedup bound 3.3x",
		"time series (3 rows)",
		"measure=2", "warmup=1",
		"vm 0  refs=20480", "miss 0.0200..0.0300 (mean 0.0250)",
		// VM 1's idle last row stays out of its range and means.
		"vm 1  refs=12288", "miss 0.0500..0.0600 (mean 0.0550)  cpt mean 9050",
		"mem queue depth mean 4.0 max 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q in:\n%s", want, out)
		}
	}
	for _, gone := range []string{"in-window", "barrier", "dom 0"} {
		if strings.Contains(out, gone) {
			t.Errorf("report still prints %q in:\n%s", gone, out)
		}
	}
}

// TestWritePhaseReportUnequalColumns reports a series whose columns
// disagree in length, as a hand-edited record may: a note, no summary,
// no panic.
func TestWritePhaseReportUnequalColumns(t *testing.T) {
	m := pdesManifest()
	m.Series = reportSeries()
	m.Series.Miss[1] = m.Series.Miss[1][:1]
	var b strings.Builder
	WritePhaseReport(&b, m)
	if out := b.String(); !strings.Contains(out, "columns of unequal length") || strings.Contains(out, "vm 0") {
		t.Errorf("report of a malformed series:\n%s", out)
	}
}

func TestWritePhaseReportNoProfile(t *testing.T) {
	var b strings.Builder
	WritePhaseReport(&b, Manifest{Label: "old", WallSeconds: 1})
	if !strings.Contains(b.String(), "no phase profile recorded") {
		t.Fatalf("missing fallback note:\n%s", b.String())
	}
}

// TestReadRunSummariesErrors feeds the reader of run records, which obs
// report reads through, the files that once went to the run-summary
// reader: a blank file is no runs, and a malformed, missing or
// non-JSONL file is an error.
func TestReadRunSummariesErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte("  \n"), 0o644)
	if ms, err := ReadManifests(empty); err != nil || len(ms) != 0 {
		t.Errorf("blank file: %d records, err = %v, want none and no error", len(ms), err)
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"refs":}`), 0o644)
	if _, err := ReadManifests(bad); err == nil {
		t.Error("malformed manifest did not error")
	}
	if _, err := ReadManifests(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing file did not error")
	}

	// The retired cmd/bench history is a JSON array, which no reader
	// takes any more: the error has to say which file, not hand back
	// all-zero records.
	_, err := ReadManifests(retiredBenchHistory)
	if err == nil || !strings.Contains(err.Error(), retiredBenchHistory) {
		t.Errorf("bench history array: err = %v, want one naming %s", err, retiredBenchHistory)
	}
}

// TestWritePhaseReportSampledWarmup reads two sampled records: one as
// written since the warm-up became a pilot window plus a fast-forward,
// one as written before (no warm-up fields, decoded from its JSON). The
// new one gains the warm-up line; both report the same ff cost ratio,
// which counts only the skipping between windows.
func TestWritePhaseReportSampledWarmup(t *testing.T) {
	const old = `{"label":"mix","refs":700000,"wall_seconds":1,"sample_windows":8,"sample_window_refs":5000,` +
		`"sample_detailed_refs":40000,"sample_skipped_refs":140000,"sample_rel_ci":0.03,"sample_stop_reason":"budget",` +
		`"phase":{"warmup_seconds":0.5,"measure_seconds":0.5,"sample_detailed_seconds":0.25,"sample_ff_seconds":0.25}}`
	var before Manifest
	if err := json.Unmarshal([]byte(old), &before); err != nil {
		t.Fatal(err)
	}
	after := before
	p := *before.Phase
	p.WarmupSeconds, p.WarmupFFSeconds = 0.25, 0.2
	after.Phase = &p
	after.SampleWarmupDetailedRefs, after.SampleWarmupFunctionalRefs = 5000, 55000

	const warmLine = "warm-up: 5000 detailed + 55000 functional refs/core"
	const costLine = "ff cost ratio 0.29x"
	for name, m := range map[string]Manifest{"before": before, "after": after} {
		var b strings.Builder
		WritePhaseReport(&b, m)
		out := b.String()
		if got := strings.Contains(out, warmLine); got != (name == "after") {
			t.Errorf("%s: warm-up line present = %v in:\n%s", name, got, out)
		}
		if !strings.Contains(out, costLine) {
			t.Errorf("%s: report missing %q in:\n%s", name, costLine, out)
		}
		if r := m.Phase.FFCostRatio(m.SampleDetailedRefs, m.SampleSkippedRefs); math.Abs(r-0.25/140000/(0.25/40000)) > 1e-12 {
			t.Errorf("%s: ff cost ratio %v counts more than the between-window skipping", name, r)
		}
	}
}

// TestWritePhaseReportLayers renders the memory-system block: the cache
// levels, directory and controllers of a record that carries a ledger,
// the fast-forward caveat on a sampled one, and nothing for a record
// written before the ledger was recorded.
func TestWritePhaseReportLayers(t *testing.T) {
	l := Layers{DirEntries: 4096, DirCacheHits: 300, DirCacheMisses: 100, MemReads: 50, MemWritebacks: 20, MemWaitCycles: 125}
	l.Cache[0] = CacheCounts{Accesses: 1000, Misses: 100, Evictions: 90}
	l.Cache[1] = CacheCounts{Accesses: 100, Misses: 40, Evictions: 30}
	l.Cache[2] = CacheCounts{Accesses: 40, Misses: 10, Evictions: 5}
	m := pdesManifest()
	m.Layers = &l

	var b strings.Builder
	WritePhaseReport(&b, m)
	out := b.String()
	for _, want := range []string{
		"memory system (measurement window):",
		"L0   accesses=1000", "(10.00%)", "evictions=90",
		"L1   accesses=100", "(40.00%)",
		"LLC  accesses=40", "(25.00%)", "evictions=5",
		"directory entries=4096  dircache hits=300 misses=100 (75.0% hit, whole run)",
		"memctrl   reads=50 writebacks=20 wait=125 cycles (2.5/read)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q in:\n%s", want, out)
		}
	}
	if strings.Index(out, "memory system") > strings.Index(out, "phase decomposition") {
		t.Errorf("memory system block not ahead of the phases:\n%s", out)
	}

	m.SampleWindows = 4
	b.Reset()
	WritePhaseReport(&b, m)
	if !strings.Contains(b.String(), "cache counters include fast-forwarded references") {
		t.Errorf("sampled record's block does not say it counts fast-forwarded references:\n%s", b.String())
	}

	for _, old := range []Manifest{pdesManifest(), {Label: "old", WallSeconds: 1}} {
		b.Reset()
		WritePhaseReport(&b, old)
		if strings.Contains(b.String(), "memory system") {
			t.Errorf("record without a ledger printed a memory system block:\n%s", b.String())
		}
	}
}
