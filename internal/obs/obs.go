// Package obs is the simulator's observability layer: a sharded metrics
// registry whose hot-path updates are allocation-free, a Chrome
// trace-format event tracer for phase and runner-pool timing, JSONL run
// manifests that stamp every result with its provenance, a live progress
// display for long sweeps, and an optional expvar + pprof debug server.
//
// The design splits responsibilities so the simulator's per-reference
// path stays zero-alloc:
//
//   - Each simulation goroutine owns a Shard and publishes into atomic
//     slots (uncontended writes, race-free concurrent reads).
//   - Dense counters (cache hits, references) are *published* on a
//     cadence by the owning goroutine rather than incremented per event,
//     so instrumentation costs one branch per reference when enabled and
//     nothing when disabled.
//   - Trace events fire only at phase granularity (warmup, measurement,
//     snapshot, runner jobs), never per reference.
package obs

import (
	"runtime/debug"
	"sync/atomic"
)

// ToolVersion identifies the simulator build in manifests and traces.
const ToolVersion = "0.3.0"

// buildRev returns the VCS revision baked into the binary, if any
// (binaries built inside the git checkout carry it; `go test` ones may
// not).
func buildRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev := ""
	dirty := false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev
}

// Observer bundles every enabled observability sink for one process:
// the registry (always present), and optionally a tracer, a manifest
// writer and a progress display. A nil *Observer disables everything.
type Observer struct {
	Reg  *Registry
	Sim  *SimMetrics
	Tr   *Tracer         // nil = tracing off
	Man  *ManifestWriter // nil = manifests off
	Prog *Progress       // nil = no live progress
	TS   *TSWriter       // nil = per-window time series off

	// Parallel is recorded into manifests (the sweep's worker count).
	Parallel int

	sh *Shard // the observer's own shard for runner-level counters
}

// NewObserver builds an observer around the standard simulator metric
// schema. tracer, man and prog may each be nil.
func NewObserver(tracer *Tracer, man *ManifestWriter, prog *Progress) *Observer {
	reg := NewRegistry()
	sim := RegisterSimMetrics(reg)
	o := &Observer{Reg: reg, Sim: sim, Tr: tracer, Man: man, Prog: prog}
	o.sh = reg.NewShard()
	if prog != nil {
		prog.bind(reg, sim)
	}
	return o
}

// Hooks returns per-run hooks with a fresh metric shard and automatic
// trace-lane assignment. Safe on a nil observer (returns nil).
func (o *Observer) Hooks() *RunHooks { return o.HooksLane(-1) }

// HooksLane is Hooks with a pre-assigned trace lane (the harness runner
// pins a run to the worker lane that already carries its job span).
func (o *Observer) HooksLane(lane int) *RunHooks {
	if o == nil {
		return nil
	}
	return &RunHooks{
		Sh:   o.Reg.NewShard(),
		M:    o.Sim,
		Tr:   o.Tr,
		Lane: lane,
		Prog: o.Prog,
		TS:   o.TS,
	}
}

// CountSim increments the executed-simulation counter.
func (o *Observer) CountSim() {
	if o != nil {
		o.sh.Add(o.Sim.Sims, 1)
	}
}

// CountJob increments the completed-runner-job counter.
func (o *Observer) CountJob() {
	if o != nil {
		o.sh.Add(o.Sim.Jobs, 1)
	}
}

// RunHooks is the per-run instrumentation handle threaded through
// core.Config into one System: a metric shard, the shared tracer (with
// the lane to emit spans on) and the progress display. All methods are
// allocation-free except RunStart (one label concatenation per run).
type RunHooks struct {
	Sh   *Shard
	M    *SimMetrics
	Tr   *Tracer
	Lane int // trace lane; -1 = acquire one for the run's duration
	Prog *Progress
	TS   *TSWriter // nil = no per-window time-series recording

	ownLane atomic.Bool // lane was acquired by RunStart, release on RunEnd
}

// RunStart opens the run's trace span and registers it with the
// progress display; it returns the lane for subsequent Phase spans.
func (h *RunHooks) RunStart(label string) int {
	if h.Prog != nil {
		h.Prog.JobStart()
	}
	lane := h.Lane
	if h.Tr != nil {
		if lane < 0 {
			lane = h.Tr.AcquireLane()
			h.ownLane.Store(true)
		}
		h.Tr.Begin(lane, "run "+label)
	}
	return lane
}

// RunEnd closes the run span (releasing an auto-acquired lane) and
// marks the run done on the progress display.
func (h *RunHooks) RunEnd(lane int) {
	if h.Tr != nil {
		h.Tr.End(lane)
		if h.ownLane.Load() {
			h.Tr.ReleaseLane(lane)
			h.ownLane.Store(false)
		}
	}
	if h.Prog != nil {
		h.Prog.JobDone()
	}
}

// Phase opens a named span on the run's lane and returns its closer.
func (h *RunHooks) Phase(lane int, name string) func() {
	if h.Tr == nil {
		return func() {}
	}
	h.Tr.Begin(lane, name)
	return func() { h.Tr.End(lane) }
}

// ObserveMissLat records one private-miss latency into the histogram.
func (h *RunHooks) ObserveMissLat(cycles uint64) { h.Sh.Observe(h.M.MissLatency, cycles) }

// AddCore folds per-VM counter deltas into the shard's counters.
func (h *RunHooks) AddCore(refs, privMisses, llcMisses, c2cClean, c2cDirty, memReads, invalidations, upgrades uint64) {
	sh, m := h.Sh, h.M
	sh.Add(m.Refs, refs)
	sh.Add(m.PrivMisses, privMisses)
	sh.Add(m.LLCMisses, llcMisses)
	sh.Add(m.C2CClean, c2cClean)
	sh.Add(m.C2CDirty, c2cDirty)
	sh.Add(m.MemReads, memReads)
	sh.Add(m.Invalidations, invalidations)
	sh.Add(m.Upgrades, upgrades)
}

// SetLevel publishes one cache level's counters (0=L0, 1=L1, 2=LLC),
// summed over the level's arrays, as gauges.
func (h *RunHooks) SetLevel(level int, accesses, misses, evictions uint64) {
	h.Sh.Set(h.M.LevelAccesses[level], accesses)
	h.Sh.Set(h.M.LevelMisses[level], misses)
	h.Sh.Set(h.M.LevelEvictions[level], evictions)
}

// SetDirectory publishes coherence-directory occupancy and directory
// cache hit/miss totals.
func (h *RunHooks) SetDirectory(entries, dcHits, dcMisses uint64) {
	h.Sh.Set(h.M.DirEntries, entries)
	h.Sh.Set(h.M.DirCacheHits, dcHits)
	h.Sh.Set(h.M.DirCacheMisses, dcMisses)
}

// SetMemory publishes memory-controller counters and live queue depth.
func (h *RunHooks) SetMemory(reads, writebacks, waitCycles uint64, queueDepth int) {
	h.Sh.Set(h.M.MemReads2, reads)
	h.Sh.Set(h.M.MemWritebacks, writebacks)
	h.Sh.Set(h.M.MemWaitCycles, waitCycles)
	h.Sh.Set(h.M.MemQueueDepth, uint64(queueDepth))
}

// SetEventQueue publishes the simulator event queue length.
func (h *RunHooks) SetEventQueue(n int) { h.Sh.Set(h.M.EventQueueLen, uint64(n)) }

// SetSampleProgress publishes the interval-sampling engine's window and
// coverage totals plus the live convergence signal (worst per-VM
// relative CI, scaled to parts per million), once per detailed window.
func (h *RunHooks) SetSampleProgress(windows, detailedRefs, skippedRefs uint64, relCI float64) {
	sh, m := h.Sh, h.M
	sh.Set(m.SampleWindows, windows)
	sh.Set(m.SampleDetailedRefs, detailedRefs)
	sh.Set(m.SampleSkippedRefs, skippedRefs)
	ppm := relCI * 1e6
	if ppm < 0 || ppm > 1e12 { // clamp +Inf (unconverged zero-mean metric)
		ppm = 1e12
	}
	sh.Set(m.SampleRelCIPPM, uint64(ppm))
}

// SetPdes publishes the split-transaction parallel engine's worker and
// domain counts (zero for the sequential engine).
func (h *RunHooks) SetPdes(workers, domains int) {
	h.Sh.Set(h.M.PdesWorkers, uint64(workers))
	h.Sh.Set(h.M.PdesDomains, uint64(domains))
}

// SetPdesProgress publishes the parallel engine's window, replay-op and
// sync-stall totals, once per window barrier.
func (h *RunHooks) SetPdesProgress(windows, ops, stalls uint64) {
	sh, m := h.Sh, h.M
	sh.Set(m.PdesWindows, windows)
	sh.Set(m.PdesOps, ops)
	sh.Set(m.PdesStalls, stalls)
}

// SetPhaseProfile publishes the run's phase decomposition as gauges
// (microsecond resolution — wall phases are milliseconds and up).
func (h *RunHooks) SetPhaseProfile(p *PhaseProfile) {
	sh, m := h.Sh, h.M
	micros := func(sec float64) uint64 { return uint64(sec * 1e6) }
	sh.Set(m.PhaseWarmupMicros, micros(p.WarmupSeconds))
	sh.Set(m.PhaseMeasureMicros, micros(p.MeasureSeconds))
	sh.Set(m.PdesWindowMicros, micros(p.PdesWindowSeconds))
	sh.Set(m.PdesReplayMicros, micros(p.PdesReplaySeconds))
	sh.Set(m.PdesBarrierMicros, micros(p.PdesBarrierSeconds))
	sh.Set(m.SampleDetailedMicros, micros(p.SampleDetailedSeconds))
	sh.Set(m.SampleFFMicros, micros(p.SampleFFSeconds))
}

// SetSharing publishes the LLC replication snapshot counts.
func (h *RunHooks) SetSharing(resident, replicated int) {
	h.Sh.Set(h.M.LLCResident, uint64(resident))
	h.Sh.Set(h.M.LLCReplicated, uint64(replicated))
}

// SetOccupancy publishes one VM's total LLC line occupancy. VMs beyond
// the fixed gauge set are ignored.
func (h *RunHooks) SetOccupancy(vm, lines int) {
	if vm >= 0 && vm < MaxVMGauges {
		h.Sh.Set(h.M.OccVM[vm], uint64(lines))
	}
}
