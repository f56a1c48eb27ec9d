package consim_test

// One benchmark per artifact of the paper's evaluation section (Table II
// and Figures 2-13), each regenerating the artifact end-to-end at reduced
// scale. `go test -bench=Fig -benchmem` exercises every experiment; the
// full-scale numbers recorded in EXPERIMENTS.md come from consim tables.
//
// Scale 16 divides footprints and cache capacities together, preserving
// the capacity ratios that drive the behaviour; the reference budgets are
// proportionally reduced.

import (
	"testing"

	"consim"
)

// benchRunner returns a fresh runner per iteration so memoization never
// turns later iterations into cache lookups.
func benchRunner() *consim.Runner {
	return consim.NewRunner(consim.RunnerOptions{
		Scale:       16,
		WarmupRefs:  40_000,
		MeasureRefs: 80_000,
		Seed:        1,
	})
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := benchRunner().RunFigure(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkTableII regenerates the workload-statistics table (isolated
// private-LLC runs of all four workloads).
func BenchmarkTableII(b *testing.B) { benchFigure(b, "T2") }

// BenchmarkFig2 regenerates isolated performance across LLC
// organizations and policies.
func BenchmarkFig2(b *testing.B) { benchFigure(b, "F2") }

// BenchmarkFig3 regenerates isolated miss rates.
func BenchmarkFig3(b *testing.B) { benchFigure(b, "F3") }

// BenchmarkFig4 regenerates isolated miss latencies across three
// organizations and all four policies.
func BenchmarkFig4(b *testing.B) { benchFigure(b, "F4") }

// BenchmarkFig5 regenerates homogeneous-mix performance per policy.
func BenchmarkFig5(b *testing.B) { benchFigure(b, "F5") }

// BenchmarkFig6 regenerates homogeneous-mix miss latencies.
func BenchmarkFig6(b *testing.B) { benchFigure(b, "F6") }

// BenchmarkFig7 regenerates homogeneous-mix miss rates.
func BenchmarkFig7(b *testing.B) { benchFigure(b, "F7") }

// BenchmarkFig8 regenerates heterogeneous-mix performance (Mixes 1-9).
func BenchmarkFig8(b *testing.B) { benchFigure(b, "F8") }

// BenchmarkFig9 regenerates heterogeneous-mix miss rates.
func BenchmarkFig9(b *testing.B) { benchFigure(b, "F9") }

// BenchmarkFig10 regenerates heterogeneous-mix miss latencies.
func BenchmarkFig10(b *testing.B) { benchFigure(b, "F10") }

// BenchmarkFig11 regenerates the sharing-degree sweep.
func BenchmarkFig11(b *testing.B) { benchFigure(b, "F11") }

// BenchmarkFig12 regenerates the LLC replication snapshot study.
func BenchmarkFig12(b *testing.B) { benchFigure(b, "F12") }

// BenchmarkFig13 regenerates the per-workload occupancy snapshots.
func BenchmarkFig13(b *testing.B) { benchFigure(b, "F13") }

// BenchmarkSimulatorThroughput measures raw simulation speed: references
// simulated per second through the full hierarchy on a consolidated
// machine (the figure sweeps' inner loop).
func BenchmarkSimulatorThroughput(b *testing.B) {
	specs := consim.WorkloadSpecs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := consim.DefaultConfig(
			specs[consim.TPCW], specs[consim.SPECjbb],
			specs[consim.TPCH], specs[consim.SPECweb],
		)
		cfg.Scale = 16
		cfg.GroupSize = 4
		cfg.WarmupRefs = 10_000
		cfg.MeasureRefs = 50_000
		res, err := consim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var refs uint64
		for _, v := range res.VMs {
			refs += v.Stats.Refs
		}
		b.ReportMetric(float64(refs), "refs/op")
	}
}
