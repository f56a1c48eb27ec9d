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
		PdesWorkers: 4, PdesDomains: 4,
		Phase: &PhaseProfile{
			WarmupSeconds: 0.4, MeasureSeconds: 1.6,
			PdesWindowSeconds: 1.2, PdesReplaySeconds: 0.6,
			PdesBarrierSeconds: 0.15, PdesStallSeconds: 0.2,
			Domains: []DomainPhase{
				{Domain: 0, Cores: 4, Cycles: 500_000, Ops: 9000, BusySeconds: 0.5},
				{Domain: 1, Cores: 4, Cycles: 500_000, Ops: 8000, BusySeconds: 0.45},
			},
		},
		TimeseriesRun: 7, TimeseriesRows: 2, Timeseries: "ts.jsonl",
	}
}

func TestWritePhaseReportPdes(t *testing.T) {
	m := pdesManifest()
	rows := []TSRow{
		{Run: 7, Phase: "warmup", MemQ: 2, Refs: []uint64{4096, 4096}, Miss: []float64{0.02, 0.05}, CPT: []float64{5000, 9000}},
		{Run: 7, Phase: "measure", MemQ: 6, Refs: []uint64{8192, 8192}, Miss: []float64{0.03, 0.06}, CPT: []float64{5200, 9100}},
		{Run: 99, Phase: "measure", Refs: []uint64{1, 1}, Miss: []float64{0.9, 0.9}, CPT: []float64{1, 1}}, // other run: excluded
	}
	var b strings.Builder
	WritePhaseReport(&b, m, rows)
	out := b.String()
	for _, want := range []string{
		"engine=pdes",
		"gomaxprocs=4",
		"in-window",
		"replay", "Amdahl",
		"barrier",
		"untracked",
		"coverage",
		"apply fraction 0.300",
		"dom 0", "dom 1", "ops=9000",
		"time series (run 7, 2 rows)",
		"warmup=1", "measure=1",
		"vm 0", "vm 1",
		"miss 0.0200..0.0300",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "0.9000") {
		t.Errorf("report leaked rows from another run:\n%s", out)
	}
}

func TestWritePhaseReportNoProfile(t *testing.T) {
	var b strings.Builder
	WritePhaseReport(&b, Manifest{Label: "old", WallSeconds: 1}, nil)
	if !strings.Contains(b.String(), "no phase profile recorded") {
		t.Fatalf("missing fallback note:\n%s", b.String())
	}
}

func TestSummarizeManifest(t *testing.T) {
	s := SummarizeManifest(pdesManifest())
	if s.RefsPerSec != 500_000 {
		t.Errorf("RefsPerSec = %v, want 500000", s.RefsPerSec)
	}
	if s.ApplyFraction != 0.3 {
		t.Errorf("ApplyFraction = %v, want 0.3", s.ApplyFraction)
	}
	if s.StallSeconds != 0.2 {
		t.Errorf("StallSeconds = %v, want 0.2", s.StallSeconds)
	}
	if !math.IsNaN(s.SampleRelCI) || !math.IsNaN(s.FFCostRatio) {
		t.Errorf("absent metrics not NaN: %+v", s)
	}

	// Pre-phase manifests fall back to the pdes provenance fields.
	old := Manifest{Label: "old", Refs: 100, WallSeconds: 2, PdesWorkers: 2, PdesApplySeconds: 0.5, PdesStallSeconds: 0.1}
	s = SummarizeManifest(old)
	if s.ApplyFraction != 0.25 || s.StallSeconds != 0.1 {
		t.Errorf("legacy summary = %+v", s)
	}
}

func TestDiffSummariesFlagsRegressions(t *testing.T) {
	base := SummarizeManifest(pdesManifest())
	cur := base
	var b strings.Builder
	if n := DiffSummaries(&b, base, cur, 0.05); n != 0 {
		t.Fatalf("self-diff found %d regressions:\n%s", n, b.String())
	}
	if !strings.Contains(b.String(), "no regressions") {
		t.Fatalf("missing all-clear note:\n%s", b.String())
	}

	cur.RefsPerSec = base.RefsPerSec * 0.8       // -20% throughput
	cur.ApplyFraction = base.ApplyFraction + 0.1 // +10 points serial share
	b.Reset()
	if n := DiffSummaries(&b, base, cur, 0.05); n != 2 {
		t.Fatalf("found %d regressions, want 2:\n%s", n, b.String())
	}
	if !strings.Contains(b.String(), "REGRESSION") {
		t.Fatalf("missing regression marker:\n%s", b.String())
	}

	// A drop inside the threshold is not flagged.
	cur = base
	cur.RefsPerSec = base.RefsPerSec * 0.97
	b.Reset()
	if n := DiffSummaries(&b, base, cur, 0.05); n != 0 {
		t.Fatalf("3%% drop flagged under 5%% threshold:\n%s", b.String())
	}

	// ff cost ratio: reported when both sides carry it, flagged past the
	// relative gate.
	base.FFCostRatio, cur = 0.75, base
	cur.FFCostRatio = 0.80
	b.Reset()
	if n := DiffSummaries(&b, base, cur, 0.05); n != 0 {
		t.Fatalf("within-gate ff cost growth flagged:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "ff_cost_ratio") {
		t.Fatalf("ff cost line missing:\n%s", b.String())
	}
	cur.FFCostRatio = 0.95
	b.Reset()
	if n := DiffSummaries(&b, base, cur, 0.05); n != 1 {
		t.Fatalf("27%%-relative ff cost growth found %d regressions, want 1:\n%s", n, b.String())
	}
}

func TestReadRunSummariesManifestJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	w, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(pdesManifest()); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(pdesManifest()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	runs, err := ReadRunSummaries(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("len=%d, want 2", len(runs))
	}
	if runs[1].Name != "shared/affinity" {
		t.Fatalf("summary = %+v", runs[1])
	}
}

func TestReadRunSummariesErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte("  \n"), 0o644)
	if _, err := ReadRunSummaries(empty); err == nil {
		t.Error("empty file did not error")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"refs":}`), 0o644)
	if _, err := ReadRunSummaries(bad); err == nil {
		t.Error("malformed manifest did not error")
	}
	if _, err := ReadRunSummaries(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing file did not error")
	}

	// The retired cmd/bench history is a JSON array, which no reader
	// takes any more: the error has to say which file, not hand back
	// records that diff as all-absent.
	_, err := ReadRunSummaries(retiredBenchHistory)
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
		WritePhaseReport(&b, m, nil)
		out := b.String()
		if got := strings.Contains(out, warmLine); got != (name == "after") {
			t.Errorf("%s: warm-up line present = %v in:\n%s", name, got, out)
		}
		if !strings.Contains(out, costLine) {
			t.Errorf("%s: report missing %q in:\n%s", name, costLine, out)
		}
		if s := SummarizeManifest(m); math.Abs(s.FFCostRatio-0.25/140000/(0.25/40000)) > 1e-12 {
			t.Errorf("%s: summary ff cost ratio %v counts more than the between-window skipping", name, s.FFCostRatio)
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
	WritePhaseReport(&b, m, nil)
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
	WritePhaseReport(&b, m, nil)
	if !strings.Contains(b.String(), "cache counters include fast-forwarded references") {
		t.Errorf("sampled record's block does not say it counts fast-forwarded references:\n%s", b.String())
	}

	for _, old := range []Manifest{pdesManifest(), {Label: "old", WallSeconds: 1}} {
		b.Reset()
		WritePhaseReport(&b, old, nil)
		if strings.Contains(b.String(), "memory system") {
			t.Errorf("record without a ledger printed a memory system block:\n%s", b.String())
		}
	}
}
