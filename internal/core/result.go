package core

import (
	"fmt"

	"consim/internal/obs"
	"consim/internal/sim"
	"consim/internal/vm"
	"consim/internal/workload"
)

// VMResult is one virtual machine's measured behaviour over the
// measurement window.
type VMResult struct {
	VM    int
	Class workload.Class
	Name  string

	Stats vm.Stats

	// Transactions completed in the measurement window (fractional; a
	// window rarely ends exactly on a transaction boundary).
	Transactions float64
	// CyclesPerTx is the paper's per-VM performance metric: window
	// cycles divided by transactions completed in the window.
	CyclesPerTx float64
	// TouchedBlocks is the distinct 64-byte blocks referenced across the
	// whole run (Table II footprint).
	TouchedBlocks uint64
}

// MissRate returns the per-VM LLC miss rate.
func (r VMResult) MissRate() float64 { return r.Stats.MissRate() }

// AvgMissLatency returns the per-VM average private-miss latency.
func (r VMResult) AvgMissLatency() float64 { return r.Stats.AvgMissLatency() }

// Snapshot is the Figure 12/13 state capture.
type Snapshot struct {
	// At is the cycle the snapshot was taken.
	At sim.Cycle
	// ResidentLines / ReplicatedLines count distinct lines in >=1 and
	// >=2 LLC banks.
	ResidentLines   int
	ReplicatedLines int
	// Occupancy[group][vmID] is the number of LLC lines in that bank
	// group inserted by that VM.
	Occupancy [][]int
	// GroupLines is each group's total line capacity.
	GroupLines int
}

// ReplicationFraction returns replicated/resident lines (Figure 12).
func (s Snapshot) ReplicationFraction() float64 {
	if s.ResidentLines == 0 {
		return 0
	}
	return float64(s.ReplicatedLines) / float64(s.ResidentLines)
}

// OccupancyShare returns VM v's fraction of bank group g's resident
// lines (Figure 13).
func (s Snapshot) OccupancyShare(g, v int) float64 {
	tot := 0
	for _, n := range s.Occupancy[g] {
		tot += n
	}
	if tot == 0 {
		return 0
	}
	return float64(s.Occupancy[g][v]) / float64(tot)
}

// Result is a complete run's output.
type Result struct {
	Config Config

	// Cycles is the length of the measurement window.
	Cycles sim.Cycle
	VMs    []VMResult

	Snapshot Snapshot

	// System-level contention indicators.
	//
	// NetAvgWait is always 0: the mesh model charges unloaded latency and
	// queues nothing (mesh.Model explains why). The field stays so -json
	// dumps, the golden results and the benchmark's mesh.avg_wait_cycles
	// keep their shape; every golden and benchmark run measured 0 here.
	NetAvgWait      float64
	NetAvgHops      float64
	MemAvgWait      float64 // mean controller-queue cycles per demand read
	DirCacheHitRate float64

	// Switches counts hypervisor timeslice rotations over the whole run
	// (warm-up included).
	Switches uint64

	// WallSeconds is host wall-clock time spent simulating; provenance
	// for run manifests, not a simulated quantity.
	WallSeconds float64

	// Sample reports the interval-sampling engine's activity; zero for a
	// detailed run. Unlike WallSeconds this IS simulation-visible
	// provenance: sampled metrics are estimates whose achieved CI it
	// records.
	Sample SampleStats

	// Pdes reports the split-transaction parallel engine's activity;
	// zero for the sequential engine. Like Sample it is simulation-
	// visible provenance: parallel-engine results are equivalence-gated
	// estimates of the sequential run, deterministic per (seed, Pdes).
	Pdes PdesStats

	// Phase decomposes WallSeconds by engine phase (warmup/measure
	// split always; pdes replay and sample detailed/ff terms when those
	// engines ran). Host-side provenance like WallSeconds.
	Phase obs.PhaseProfile

	// Layers is the memory system's ledger (obs.Layers says over which
	// references each counter runs; on sampled runs the cache counters
	// include fast-forwarded ones). It is kept out of vm.Stats, which the
	// golden fixtures and the benchmark's stats_digest hash.
	Layers obs.Layers

	// Series is the run's per-window time series (nil unless the hooks
	// asked for one). Host-side provenance: its wall column varies run to
	// run.
	Series *obs.Series `json:",omitempty"`
}

// ManifestFor stamps a run manifest from a finished result: what was
// simulated (label, workloads, organization, scale, seed, budgets) and
// what it cost (simulated refs and cycles, host wall time). The caller
// fills process-wide fields (time, host parallelism, tool version, git
// revision) via ManifestWriter.Write.
func ManifestFor(cfg Config, res Result, parallel int) obs.Manifest {
	names := make([]string, len(cfg.Workloads))
	for i, w := range cfg.Workloads {
		names[i] = w.Name
	}
	var refs uint64
	for _, v := range res.VMs {
		refs += v.Stats.Refs
	}
	var phase *obs.PhaseProfile
	if !res.Phase.Zero() {
		p := res.Phase
		phase = &p
	}
	var layers *obs.Layers
	if res.Layers != (obs.Layers{}) {
		l := res.Layers
		layers = &l
	}
	return obs.Manifest{
		Phase:  phase,
		Layers: layers,
		Series: res.Series,

		Label:       cfg.Label(),
		Workloads:   names,
		GroupSize:   cfg.GroupSize,
		Policy:      cfg.Policy.String(),
		Scale:       cfg.Scale,
		Seed:        cfg.Seed,
		WarmupRefs:  cfg.WarmupRefs,
		MeasureRefs: cfg.MeasureRefs,
		Refs:        refs,
		Cycles:      uint64(res.Cycles),
		WallSeconds: res.WallSeconds,
		Parallel:    parallel,

		SampleWindows:      res.Sample.Windows,
		SampleWindowRefs:   cfg.Sample.WindowRefs,
		SampleDetailedRefs: res.Sample.DetailedRefs,
		SampleSkippedRefs:  res.Sample.SkippedRefs,
		SampleRelCI:        res.Sample.AchievedRelCI,
		SampleStopReason:   res.Sample.StopReason,

		SampleWarmupDetailedRefs:   res.Sample.WarmupDetailedRefs,
		SampleWarmupFunctionalRefs: res.Sample.WarmupFunctionalRefs,
	}
}

// FFCostRatio returns the sampled run's fast-forward cost ratio
// (obs.PhaseProfile.FFCostRatio); the benchmark's sampled workload
// reports it.
func (r Result) FFCostRatio() float64 {
	return r.Phase.FFCostRatio(r.Sample.DetailedRefs, r.Sample.SkippedRefs)
}

// ByClass returns the results of all VMs running the given workload, in
// VM order.
func (r Result) ByClass(c workload.Class) []VMResult {
	var out []VMResult
	for _, v := range r.VMs {
		if v.Class == c {
			out = append(out, v)
		}
	}
	return out
}

// String summarizes the run for logs.
func (r Result) String() string {
	s := fmt.Sprintf("%s/%s: %d cycles", r.Config.SharingName(), r.Config.Policy, r.Cycles)
	for _, v := range r.VMs {
		s += fmt.Sprintf("\n  vm%d %-8s cpt=%.0f missRate=%.4f missLat=%.1f c2c=%.2f",
			v.VM, v.Name, v.CyclesPerTx, v.MissRate(), v.AvgMissLatency(), v.Stats.C2CFraction())
	}
	return s
}
