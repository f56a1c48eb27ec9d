package core

import (
	"math"
	"path/filepath"
	"testing"

	"consim/internal/obs"
	"consim/internal/sched"
	"consim/internal/workload"
)

// runWithTS runs cfg with a live time-series recorder attached and
// returns the result plus the decoded sidecar rows.
func runWithTS(t *testing.T, cfg Config) (Result, []obs.TSRow) {
	t.Helper()
	o := obs.NewObserver(nil, nil, nil)
	tsw, err := obs.OpenTimeSeries(filepath.Join(t.TempDir(), "ts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	o.TS = tsw
	cfg.Obs = o.Hooks()
	res := mustRun(t, cfg)
	if err := tsw.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := obs.ReadTimeSeries(tsw.Path())
	if err != nil {
		t.Fatal(err)
	}
	return res, rows
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
// decomposition: in-window + replay + barrier must account for the
// run's measured wall time (the report's untracked residual is loop
// bookkeeping only), the per-domain breakdown must cover every domain,
// and the -timeseries sidecar must carry the same story per window.
func TestPdesPhaseProfileCoverage(t *testing.T) {
	cfg := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
	cfg.Pdes = 4
	res, rows := runWithTS(t, cfg)

	p := res.Phase
	if p.Engine() != "pdes" {
		t.Fatalf("engine = %q, want pdes", p.Engine())
	}
	if p.PdesWindowSeconds <= 0 || p.PdesReplaySeconds <= 0 {
		t.Fatalf("pdes terms missing: %+v", p)
	}
	if p.PdesReplaySeconds != res.Pdes.ApplySeconds {
		t.Fatalf("replay %.6fs != engine apply %.6fs", p.PdesReplaySeconds, res.Pdes.ApplySeconds)
	}
	tracked := p.TrackedSeconds()
	if dev := math.Abs(tracked-res.WallSeconds) / res.WallSeconds; dev > 0.02 {
		t.Fatalf("decomposition off by %.1f%%: window %.4f + replay %.4f + barrier %.4f = %.4f vs wall %.4f",
			100*dev, p.PdesWindowSeconds, p.PdesReplaySeconds, p.PdesBarrierSeconds, tracked, res.WallSeconds)
	}
	t.Logf("coverage %.2f%% of %.3fs wall (window %.3f, replay %.3f, barrier %.3f, stall %.3f)",
		100*tracked/res.WallSeconds, res.WallSeconds,
		p.PdesWindowSeconds, p.PdesReplaySeconds, p.PdesBarrierSeconds, p.PdesStallSeconds)

	if len(p.Domains) != res.Pdes.Domains {
		t.Fatalf("%d domain entries, engine formed %d", len(p.Domains), res.Pdes.Domains)
	}
	var ops uint64
	for _, d := range p.Domains {
		if d.Cores <= 0 || d.Cycles == 0 {
			t.Fatalf("empty domain entry: %+v", d)
		}
		ops += d.Ops
	}
	if ops != res.Pdes.Ops {
		t.Fatalf("domain ops sum %d != engine ops %d", ops, res.Pdes.Ops)
	}
	if len(p.PdesApplyOpsByGroup) == 0 {
		t.Fatalf("no per-group apply breakdown")
	}
	var groupOps uint64
	for _, n := range p.PdesApplyOpsByGroup {
		groupOps += n
	}
	if groupOps != res.Pdes.Ops {
		t.Fatalf("per-group apply ops sum %d != engine ops %d", groupOps, res.Pdes.Ops)
	}
	if af := p.ApplyFraction(res.WallSeconds); af <= 0 || af >= 1 {
		t.Fatalf("apply fraction = %v", af)
	}

	// Sidecar: rows recorded under this run's id, domain columns sized
	// to the engine, per-window replay deltas summing to the total.
	if res.TimeseriesRun == 0 || res.TimeseriesRows == 0 {
		t.Fatalf("result missing sidecar reference: run=%d rows=%d", res.TimeseriesRun, res.TimeseriesRows)
	}
	mine := 0
	var replaySum float64
	for _, row := range rows {
		if row.Run != res.TimeseriesRun {
			continue
		}
		mine++
		replaySum += row.Replay
		if len(row.DomCycles) != res.Pdes.Domains || len(row.Refs) != len(res.VMs) {
			t.Fatalf("row shape = %+v", row)
		}
	}
	if mine != res.TimeseriesRows {
		t.Fatalf("sidecar holds %d rows for run %d, result says %d", mine, res.TimeseriesRun, res.TimeseriesRows)
	}
	if dev := math.Abs(replaySum-res.Pdes.ApplySeconds) / res.Pdes.ApplySeconds; dev > 0.02 {
		t.Fatalf("per-row replay sum %.4fs vs engine apply %.4fs (off %.1f%%)",
			replaySum, res.Pdes.ApplySeconds, 100*dev)
	}
}

// TestSamplePhaseProfile checks the sampled engine's detailed vs
// fast-forward split and the per-window CI trajectory in the sidecar.
func TestSamplePhaseProfile(t *testing.T) {
	cfg := fastCfg(4, sched.Affinity, workload.TPCH)
	cfg.MeasureRefs = 120_000
	cfg.Sample = SampleConfig{WindowRefs: 4_000, FFRatio: 2, CITarget: 0.5, MinWindows: 3}
	res, rows := runWithTS(t, cfg)

	p := res.Phase
	if p.Engine() != "sample" {
		t.Fatalf("engine = %q, want sample", p.Engine())
	}
	if p.SampleDetailedSeconds <= 0 || p.SampleFFSeconds <= 0 {
		t.Fatalf("sample terms missing: %+v", p)
	}
	sawCI := false
	for _, row := range rows {
		if row.Run == res.TimeseriesRun && row.RelCI > 0 {
			sawCI = true
		}
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

// TestPdesShardedPhaseProfile extends the coverage contract to the
// bank-sharded replay: the parallel/merge terms must decompose the total
// replay time, window + replay + barrier must still account for the wall
// without double counting, and the serial-residue apply fraction must
// come in under the all-serial replay share.
func TestPdesShardedPhaseProfile(t *testing.T) {
	cfg := fastCfg(4, sched.Affinity, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
	cfg.Pdes = 4
	cfg.PdesReplayWorkers = 4
	res, _ := runWithTS(t, cfg)

	p := res.Phase
	if p.PdesReplayParallelSeconds <= 0 || p.PdesReplayMergeSeconds <= 0 {
		t.Fatalf("sharded replay terms missing: %+v", p)
	}
	if p.PdesReplayParallelSeconds+p.PdesReplayMergeSeconds > p.PdesReplaySeconds {
		t.Fatalf("parallel %.4f + merge %.4f exceed total replay %.4f",
			p.PdesReplayParallelSeconds, p.PdesReplayMergeSeconds, p.PdesReplaySeconds)
	}
	tracked := p.TrackedSeconds()
	if dev := math.Abs(tracked-res.WallSeconds) / res.WallSeconds; dev > 0.02 {
		t.Fatalf("sharded decomposition off by %.1f%%: tracked %.4f vs wall %.4f", 100*dev, tracked, res.WallSeconds)
	}
	serialShare := p.ApplyFraction(res.WallSeconds)
	totalShare := p.PdesReplaySeconds / res.WallSeconds
	if serialShare <= 0 || serialShare >= totalShare {
		t.Fatalf("serial apply fraction %.4f not inside (0, total replay share %.4f)", serialShare, totalShare)
	}
	if prf := p.ParallelReplayFraction(); prf <= 0 || prf >= 1 {
		t.Fatalf("parallel replay fraction = %v", prf)
	}
	t.Logf("replay %.3fs = parallel %.3f + merge %.3f (+ serial residue); apply fraction %.3f vs all-serial %.3f",
		p.PdesReplaySeconds, p.PdesReplayParallelSeconds, p.PdesReplayMergeSeconds,
		serialShare, totalShare)
}
