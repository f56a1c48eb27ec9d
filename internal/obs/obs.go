// Package obs is the simulator's observability layer: a sharded metrics
// registry of counters and gauges whose hot-path updates are
// allocation-free, a Chrome trace-format event tracer for phase and
// runner-pool timing, JSONL run manifests that stamp every result with
// its provenance, its memory-system ledger and, with -timeseries, its
// per-window time series (per-VM references, LLC miss rate and cycles
// per transaction, memory queue depth and sampling CI, one row per live
// publish), the report that renders one such record, and a live
// progress display for long sweeps. The flags that start these sinks,
// the CPU and heap profiles and the optional pprof debug server belong
// to the consim command: the package links no network stack.
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
	// Series records each run's per-window time series into its
	// result and manifest record.
	Series bool

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
		Sh:     o.Reg.NewShard(),
		M:      o.Sim,
		Tr:     o.Tr,
		Lane:   lane,
		Prog:   o.Prog,
		Series: o.Series,
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
	// Series: record the run's per-window time series (Result.Series).
	Series bool

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

// AddCore folds per-VM counter deltas into the shard's counters.
func (h *RunHooks) AddCore(refs, privMisses, privMissCycles, llcMisses, c2cClean, c2cDirty, invalidations, upgrades uint64) {
	sh, m := h.Sh, h.M
	sh.Add(m.Refs, refs)
	sh.Add(m.PrivMisses, privMisses)
	sh.Add(m.PrivMissCycles, privMissCycles)
	sh.Add(m.LLCMisses, llcMisses)
	sh.Add(m.C2CClean, c2cClean)
	sh.Add(m.C2CDirty, c2cDirty)
	sh.Add(m.Invalidations, invalidations)
	sh.Add(m.Upgrades, upgrades)
}

// SetLayers publishes the memory system's ledger as gauges.
func (h *RunHooks) SetLayers(l *Layers) {
	sh, m := h.Sh, h.M
	for i, c := range l.Cache {
		sh.Set(m.LevelAccesses[i], c.Accesses)
		sh.Set(m.LevelMisses[i], c.Misses)
		sh.Set(m.LevelEvictions[i], c.Evictions)
	}
	sh.Set(m.DirEntries, l.DirEntries)
	sh.Set(m.DirCacheHits, l.DirCacheHits)
	sh.Set(m.DirCacheMisses, l.DirCacheMisses)
	sh.Set(m.MemReads2, l.MemReads)
	sh.Set(m.MemWritebacks, l.MemWritebacks)
	sh.Set(m.MemWaitCycles, l.MemWaitCycles)
}

// SetPhaseProfile publishes the run's warm-up and measurement wall time
// as gauges (microsecond resolution — wall phases are milliseconds and
// up).
func (h *RunHooks) SetPhaseProfile(p *PhaseProfile) {
	h.Sh.Set(h.M.PhaseWarmupMicros, uint64(p.WarmupSeconds*1e6))
	h.Sh.Set(h.M.PhaseMeasureMicros, uint64(p.MeasureSeconds*1e6))
}
