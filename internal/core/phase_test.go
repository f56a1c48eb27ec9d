package core

import (
	"math"
	"testing"

	"consim/internal/obs"
	"consim/internal/sched"
	"consim/internal/workload"
)

// runWithTS runs cfg with a time series recording and returns the
// result and the series.
func runWithTS(t *testing.T, cfg Config) (Result, *obs.Series) {
	t.Helper()
	o := obs.NewObserver(nil, nil, nil)
	o.Series = true
	cfg.Obs = o.Hooks()
	res := mustRun(t, cfg)
	if res.Series == nil || res.Series.Rows() == 0 {
		t.Fatalf("run recorded no time series: %+v", res.Series)
	}
	return res, res.Series
}

// TestPhaseProfileSequential checks the engine-agnostic warmup/measure
// split is recorded for a plain detailed run.
func TestPhaseProfileSequential(t *testing.T) {
	res := mustRun(t, fastCfg(4, sched.Affinity, workload.TPCH))
	p := res.Phase
	if p.Zero() {
		t.Fatal("phase profile empty for a sequential run")
	}
	if p.Engine() != "" {
		t.Fatalf("engine = %q, want sequential", p.Engine())
	}
	if p.WarmupSeconds <= 0 || p.MeasureSeconds <= 0 {
		t.Fatalf("warmup/measure split = %+v", p)
	}
	tracked := p.TrackedSeconds()
	if tracked > res.WallSeconds*1.0001 {
		t.Fatalf("tracked %.4fs exceeds wall %.4fs", tracked, res.WallSeconds)
	}
	if tracked < res.WallSeconds*0.95 {
		t.Fatalf("tracked %.4fs covers <95%% of wall %.4fs", tracked, res.WallSeconds)
	}
}

// TestPdesPhaseProfileCoverage is the acceptance check for the pdes
// profile: its replay term is the engine's apply time, a fraction of the
// wall strictly inside (0,1); the warmup/measure split accounts for the
// run's measured wall time (the report's untracked residual is loop
// bookkeeping only); and the time series records the run's VMs row by
// row.
func TestPdesPhaseProfileCoverage(t *testing.T) {
	cfg := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
	cfg.Pdes = 4
	res, series := runWithTS(t, cfg)

	p := res.Phase
	if p.Engine() != "pdes" {
		t.Fatalf("engine = %q, want pdes", p.Engine())
	}
	if p.PdesReplaySeconds != res.Pdes.ApplySeconds {
		t.Fatalf("replay %.6fs != engine apply %.6fs", p.PdesReplaySeconds, res.Pdes.ApplySeconds)
	}
	if af := p.ApplyFraction(res.WallSeconds); af <= 0 || af >= 1 {
		t.Fatalf("apply fraction = %v", af)
	}
	tracked := p.TrackedSeconds()
	if dev := math.Abs(tracked-res.WallSeconds) / res.WallSeconds; dev > 0.02 {
		t.Fatalf("decomposition off by %.1f%%: warmup %.4f + measure %.4f = %.4f vs wall %.4f",
			100*dev, p.WarmupSeconds, p.MeasureSeconds, tracked, res.WallSeconds)
	}
	t.Logf("coverage %.2f%% of %.3fs wall (warmup %.3f, measure %.3f, replay %.3f)",
		100*tracked/res.WallSeconds, res.WallSeconds, p.WarmupSeconds, p.MeasureSeconds, p.PdesReplaySeconds)

	// Time series: VM columns sized to the run, each one entry per row.
	n := series.Rows()
	if len(series.Refs) != len(res.VMs) {
		t.Fatalf("series shape: %d VM columns, want %d", len(series.Refs), len(res.VMs))
	}
	for v := range series.Refs {
		if len(series.Refs[v]) != n || len(series.Miss[v]) != n || len(series.CPT[v]) != n {
			t.Fatalf("vm%d columns hold %d/%d/%d entries, want %d", v, len(series.Refs[v]), len(series.Miss[v]), len(series.CPT[v]), n)
		}
	}
}

// TestSamplePhaseProfile checks the sampled engine's detailed vs
// fast-forward split and the per-window CI trajectory in the time
// series.
func TestSamplePhaseProfile(t *testing.T) {
	cfg := fastCfg(4, sched.Affinity, workload.TPCH)
	cfg.MeasureRefs = 120_000
	cfg.Sample = SampleConfig{WindowRefs: 4_000, FFRatio: 2, CITarget: 0.5, MinWindows: 3}
	res, series := runWithTS(t, cfg)

	p := res.Phase
	if p.Engine() != "sample" {
		t.Fatalf("engine = %q, want sample", p.Engine())
	}
	if p.SampleDetailedSeconds <= 0 || p.SampleFFSeconds <= 0 {
		t.Fatalf("sample terms missing: %+v", p)
	}
	sawCI := false
	for _, ci := range series.RelCI {
		sawCI = sawCI || ci > 0
	}
	if !sawCI {
		t.Fatal("no CI trajectory in the sampled run's rows")
	}
}

// TestPhaseTelemetryPreservesGoldens pins the zero-perturbation
// guarantee: attaching the recorder changes no simulated result — the
// digest with -timeseries on is byte-identical to the plain run's.
func TestPhaseTelemetryPreservesGoldens(t *testing.T) {
	cfg := fastCfg(4, sched.RoundRobin, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
	cfg.Pdes = 2
	plain := mustRun(t, cfg)
	recorded, _ := runWithTS(t, cfg)
	if got, want := pdesDigest(t, recorded), pdesDigest(t, plain); got != want {
		t.Fatalf("telemetry perturbed the simulation:\n got %s\nwant %s", got, want)
	}
}

// TestSeriesRowsCarryTheirPhase checks every row of a detailed and of a
// sampled run: each is tagged with the phase it was recorded in (never
// other; the measurement tail once landed there), and in each some VM
// issued references (the sampled run's closing publish, right after its
// last window's, once committed a row of zeros). A sampled window's
// closing row, the first to carry the CI that window updated, is tagged
// window (it once landed in measure).
func TestSeriesRowsCarryTheirPhase(t *testing.T) {
	detailed := fastCfg(4, sched.Affinity, workload.TPCH, workload.SPECjbb)
	sampled := detailed
	sampled.MeasureRefs = 60_000
	sampled.Sample = SampleConfig{WindowRefs: 2_000, CITarget: 0.2}
	for name, cfg := range map[string]Config{"detailed": detailed, "sampled": sampled} {
		res, s := runWithTS(t, cfg)
		for i, p := range s.Phase {
			if p == obs.TSPhaseOther {
				t.Errorf("%s: row %d of %d tagged other", name, i, s.Rows())
			}
			var refs uint64
			for v := range s.Refs {
				refs += s.Refs[v][i]
			}
			if refs == 0 {
				t.Errorf("%s: row %d of %d (%s) has no references", name, i, s.Rows(), p)
			}
		}
		if !cfg.Sample.Enabled() {
			continue
		}
		closing := 0
		for i := 1; i < s.Rows(); i++ {
			if s.RelCI[i] == s.RelCI[i-1] {
				continue
			}
			closing++
			if s.Phase[i] != obs.TSPhaseWindow {
				t.Errorf("%s: row %d of %d carries a window's CI %.4f but is tagged %s", name, i, s.Rows(), s.RelCI[i], s.Phase[i])
			}
		}
		if closing != res.Sample.Windows {
			t.Errorf("%s: %d rows carry a new CI, want one per window (%d)", name, closing, res.Sample.Windows)
		}
	}
}
