// Package consim is a simulator for studying server-consolidation
// workloads on multi-core designs, reproducing "An Evaluation of Server
// Consolidation Workloads for Multi-Core Designs" (Enright Jerger,
// Vantrease, Lipasti — IISWC 2007).
//
// It models a 16-core CMP (Table III of the paper): per-core L0/L1
// caches, a 16MB last-level cache divided into private, shared-N-way or
// fully-shared bank groups, an SGI-Origin-style directory protocol with
// per-node directory caches, a 2-D mesh interconnect, and queued memory
// controllers. Four statistical workload models stand in for the paper's
// commercial workloads (TPC-W, SPECjbb, TPC-H, SPECweb), calibrated to
// its Table II sharing statistics. A hypervisor layer places each
// 4-thread virtual machine's threads on cores under round-robin,
// affinity, hybrid or random policies.
//
// Quick start:
//
//	cfg := consim.DefaultConfig(consim.WorkloadSpecs()[consim.TPCH])
//	cfg.GroupSize = 4 // shared-4-way LLC
//	res, err := consim.Run(cfg)
//
// The harness sub-API (Mixes, NewRunner, figure runners) regenerates
// every table and figure of the paper's evaluation; see `consim tables`.
package consim

import (
	"consim/internal/core"
	"consim/internal/harness"
	"consim/internal/sched"
	"consim/internal/sim"
	"consim/internal/workload"
)

// Core simulator types.
type (
	// Cycle is a simulated-time cycle count (Result.Cycles).
	Cycle = sim.Cycle
	// Config describes one simulation run; see DefaultConfig.
	Config = core.Config
	// System is a configured simulation instance.
	System = core.System
	// Result is a completed run's metrics.
	Result = core.Result
	// VMResult is one virtual machine's measurements.
	VMResult = core.VMResult
	// Snapshot captures LLC replication and occupancy state.
	Snapshot = core.Snapshot
	// SampleConfig enables interval-sampled simulation (Config.Sample):
	// detailed windows, functional fast-forward, CI-convergence early
	// stop. The zero value keeps runs fully detailed and bit-identical.
	SampleConfig = core.SampleConfig
	// SampleStats reports a sampled run's coverage and achieved
	// confidence interval (Result.Sample); all-zero for detailed runs.
	SampleStats = core.SampleStats
)

// Workload modeling types.
type (
	// WorkloadClass identifies one of the paper's four workloads.
	WorkloadClass = workload.Class
	// WorkloadSpec parameterizes a workload model.
	WorkloadSpec = workload.Spec
	// Phase modulates a workload's reference mix for a stretch of
	// execution (§VII phase analysis).
	Phase = workload.Phase
)

// TwoPhase builds the classic scan/update phase alternation for
// phase-alignment studies; each phase lasts refs references per thread.
func TwoPhase(refs uint64) []Phase { return workload.TwoPhase(refs) }

// Scheduling types.
type (
	// Policy is a hypervisor thread-placement policy.
	Policy = sched.Policy
)

// Experiment harness types.
type (
	// Mix is a Table IV workload combination.
	Mix = harness.Mix
	// Runner executes and memoizes experiment simulations.
	Runner = harness.Runner
	// RunnerOptions scale an experiment suite.
	RunnerOptions = harness.Options
	// FigureTable is a rendered figure/table result.
	FigureTable = harness.Table
	// RunComparison is one configuration run detailed and sampled, with
	// per-VM metric deviations against the CI-derived bound.
	RunComparison = harness.RunComparison
)

// The four commercial workloads.
const (
	TPCW    = workload.TPCW
	SPECjbb = workload.SPECjbb
	TPCH    = workload.TPCH
	SPECweb = workload.SPECweb
)

// The four scheduling policies of §III-D.
const (
	RoundRobin = sched.RoundRobin
	Affinity   = sched.Affinity
	RRAffinity = sched.RRAffinity
	Random     = sched.Random
)

// DefaultConfig returns the paper's 16-core machine configured to run the
// given workloads (one VM of four threads each).
func DefaultConfig(specs ...WorkloadSpec) Config {
	return core.DefaultConfig(specs...)
}

// NewSystem builds a simulation from cfg.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// Run builds and executes a simulation in one call.
func Run(cfg Config) (Result, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	return sys.Run()
}

// WorkloadSpecs returns the calibrated models of the paper's four
// workloads, indexed by WorkloadClass.
func WorkloadSpecs() [workload.NumClasses]WorkloadSpec { return workload.Specs() }

// WorkloadByName resolves a workload by its paper name ("TPC-W",
// "SPECjbb", "TPC-H", "SPECweb").
func WorkloadByName(name string) (WorkloadSpec, error) { return workload.ByName(name) }

// PolicyByName resolves a policy by name ("rr", "affinity", "aff-rr",
// "random").
func PolicyByName(name string) (Policy, error) { return sched.ByName(name) }

// AllPolicies returns the four policies in the paper's order.
func AllPolicies() []Policy { return sched.All() }

// HeterogeneousMixes returns Table IV's Mixes 1-9.
func HeterogeneousMixes() []Mix { return harness.HeterogeneousMixes() }

// HomogeneousMixes returns Table IV's Mixes A-D.
func HomogeneousMixes() []Mix { return harness.HomogeneousMixes() }

// MixByID resolves a Table IV mix by label ("1".."9", "A".."D").
func MixByID(id string) (Mix, error) { return harness.MixByID(id) }

// NewRunner returns an experiment runner that memoizes simulations
// across figure regenerations. Memoization is single-flight and all
// execution shares one worker pool of RunnerOptions.Parallel slots
// (0 defaults to runtime.GOMAXPROCS); Runner.RunFigures schedules a
// whole figure suite through that one deduplicated queue.
func NewRunner(opt RunnerOptions) *Runner { return harness.NewRunner(opt) }

// DefaultRunnerOptions returns the full-scale experiment settings used
// for EXPERIMENTS.md.
func DefaultRunnerOptions() RunnerOptions { return harness.DefaultOptions() }

// FigureIDs lists the reproducible artifacts (T2, F2..F13).
func FigureIDs() []string { return harness.FigureIDs() }

// AblationIDs lists the design-choice ablation studies (A1..A6).
func AblationIDs() []string { return harness.AblationIDs() }

// CompareSampledRun executes cfg fully detailed and again interval-
// sampled under sc, reporting per-VM metric deviations against the
// sampled run's CI-derived error bound.
func CompareSampledRun(cfg Config, sc SampleConfig) (RunComparison, error) {
	return harness.CompareSampledRun(cfg, sc)
}

// DefaultPdesBound is the fixed error budget split-transaction parallel
// runs are judged against (harness.DefaultPdesBound).
const DefaultPdesBound = harness.DefaultPdesBound
