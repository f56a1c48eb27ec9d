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
			PdesApplyOpsByGroup: []uint64{12750, 4250},
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
		"replay ops by LLC group",
		"group 0", "(75.0%)", "(25.0%)",
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
	if !math.IsNaN(s.AllocsPerRef) || !math.IsNaN(s.SampleRelCI) {
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

const benchHistoryJSON = `[
  {"time":"2026-01-01T00:00:00Z","go_version":"go1.22","refs_per_sec":100000,
   "wall_seconds":1.5,"allocs_per_ref":0.0001,
   "pdes_sweep":{"points":[{"workers":1,"apply_fraction":0.30},{"workers":4,"apply_fraction":0.35}]}},
  {"time":"2026-01-02T00:00:00Z","go_version":"go1.22","refs_per_sec":90000,
   "wall_seconds":1.7,"allocs_per_ref":0.0001,
   "pdes_sweep":{"points":[{"workers":1,"apply_fraction":0.31},{"workers":4,"apply_fraction":0.45}]}}
]`

func TestReadRunSummariesBenchHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(benchHistoryJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, kind, err := ReadRunSummaries(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "bench" || len(runs) != 2 {
		t.Fatalf("kind=%q len=%d, want bench/2", kind, len(runs))
	}
	if runs[0].RefsPerSec != 100000 || runs[0].PdesApply[4] != 0.35 {
		t.Fatalf("bench summary 0 = %+v", runs[0])
	}
	// Headline apply fraction comes from the widest sweep point.
	if runs[1].ApplyFraction != 0.45 {
		t.Fatalf("headline apply = %v, want 0.45", runs[1].ApplyFraction)
	}

	// Diffing the two history entries flags both the throughput drop
	// and the 4-worker apply growth.
	var b strings.Builder
	if n := DiffSummaries(&b, runs[0], runs[1], 0.05); n != 3 {
		t.Fatalf("found %d regressions, want 3:\n%s", n, b.String())
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
	runs, kind, err := ReadRunSummaries(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "manifest" || len(runs) != 2 {
		t.Fatalf("kind=%q len=%d, want manifest/2", kind, len(runs))
	}
	if runs[1].Name != "shared/affinity" {
		t.Fatalf("summary = %+v", runs[1])
	}
}

func TestReadRunSummariesLegacySingleBenchObject(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	one := `{"time":"2026-01-01T00:00:00Z","go_version":"go1.22","refs_per_sec":5000,"wall_seconds":2}`
	if err := os.WriteFile(path, []byte(one), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, kind, err := ReadRunSummaries(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "bench" || len(runs) != 1 || runs[0].RefsPerSec != 5000 {
		t.Fatalf("kind=%q runs=%+v", kind, runs)
	}
}

func TestReadRunSummariesErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte("  \n"), 0o644)
	if _, _, err := ReadRunSummaries(empty); err == nil {
		t.Error("empty file did not error")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`[{"refs_per_sec":}]`), 0o644)
	if _, _, err := ReadRunSummaries(bad); err == nil {
		t.Error("malformed bench history did not error")
	}
	if _, _, err := ReadRunSummaries(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing file did not error")
	}
}

func TestGatePdesApply(t *testing.T) {
	base := map[int]float64{1: 0.30, 4: 0.35}
	if err := GatePdesApply(base, map[int]float64{1: 0.31, 4: 0.38}); err != nil {
		t.Errorf("within-gate growth failed: %v", err)
	}
	if err := GatePdesApply(base, map[int]float64{4: 0.42}); err == nil {
		t.Error("7-point growth passed the 5-point gate")
	}
	// Worker counts absent from the baseline are not gated.
	if err := GatePdesApply(base, map[int]float64{8: 0.9}); err != nil {
		t.Errorf("ungated worker count failed: %v", err)
	}
}

func TestGateFFCost(t *testing.T) {
	if err := GateFFCost(0.75, 0.80); err != nil {
		t.Errorf("within-gate growth failed: %v", err)
	}
	if err := GateFFCost(0.75, 0.95); err == nil {
		t.Error("27%% relative growth passed the 20%% gate")
	}
	// A missing side gates nothing (histories predating the field).
	if err := GateFFCost(0, 0.95); err != nil {
		t.Errorf("missing baseline gated: %v", err)
	}
	if err := GateFFCost(0.75, 0); err != nil {
		t.Errorf("missing current gated: %v", err)
	}
	// Improvement always passes.
	if err := GateFFCost(0.75, 0.40); err != nil {
		t.Errorf("improvement failed the gate: %v", err)
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
