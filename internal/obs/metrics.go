package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric.
type Kind uint8

const (
	// Counter values only grow; the registry total is the sum over
	// shards.
	Counter Kind = iota
	// Gauge values are point-in-time publishes; each shard holds its
	// writer's last published value and the registry total sums them
	// (for per-run totals like cache hits since measurement start, the
	// sum across workers is the live machine-wide figure).
	Gauge
)

// ID names a registered metric; it indexes every shard's slot array.
type ID int

// Registry holds the registered metrics' kinds and the shards publishing
// to them. Registration happens once, up front; NewShard freezes the
// schema so shard slot arrays never reallocate (the hot path indexes
// them without synchronization beyond the atomic slot itself).
type Registry struct {
	mu     sync.Mutex
	kinds  []Kind
	byName map[string]ID
	shards []*Shard
	frozen bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]ID)}
}

func (r *Registry) register(name string, kind Kind) ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byName[name]; ok {
		if r.kinds[id] != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return id
	}
	if r.frozen {
		panic(fmt.Sprintf("obs: metric %q registered after the first shard", name))
	}
	id := ID(len(r.kinds))
	r.kinds = append(r.kinds, kind)
	r.byName[name] = id
	return id
}

// CounterID registers (or looks up) a counter.
func (r *Registry) CounterID(name string) ID { return r.register(name, Counter) }

// GaugeID registers (or looks up) a gauge.
func (r *Registry) GaugeID(name string) ID { return r.register(name, Gauge) }

// NewShard allocates a shard over the registered schema and freezes
// further registration. Each simulation (or worker) owns one shard:
// writes are uncontended, and readers aggregate across shards with
// atomic loads, so a live observer never races the hot path.
func (r *Registry) NewShard() *Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frozen = true
	sh := &Shard{slots: make([]atomic.Uint64, len(r.kinds))}
	r.shards = append(r.shards, sh)
	return sh
}

// Value returns the metric's aggregate value: the sum over all shards.
func (r *Registry) Value(id ID) uint64 {
	r.mu.Lock()
	shards := r.shards
	r.mu.Unlock()
	var sum uint64
	for _, sh := range shards {
		sum += sh.slots[id].Load()
	}
	return sum
}

// Shard is one writer's slice of the registry. A shard's writer may be
// any single goroutine at a time (slots are atomic, so even concurrent
// writers merely contend); readers aggregate through the Registry.
type Shard struct {
	slots []atomic.Uint64
}

// Add increments a counter slot. Allocation-free.
func (s *Shard) Add(id ID, n uint64) { s.slots[id].Add(n) }

// Set publishes a gauge slot. Allocation-free.
func (s *Shard) Set(id ID, v uint64) { s.slots[id].Store(v) }

// SimMetrics is the standard simulator metric schema: the IDs every
// System publishes through its RunHooks. Registering the schema on a
// fresh registry is what NewObserver does. Every series has a reader:
// -progress (Progress) reads Refs, PrivMisses and PrivMissCycles; the
// benchmark's per-layer ledger (benchmark/trace.go, readCounts) reads the
// rest. A run's per-VM results and memory-system counters reach a human
// through the run record (Result, Manifest.Layers), not through this
// registry.
type SimMetrics struct {
	// Hot-path counters, published as deltas on a cadence.
	Refs, PrivMisses, LLCMisses ID
	C2CClean, C2CDirty          ID
	Invalidations, Upgrades     ID
	// PrivMissCycles sums the latency of the misses PrivMisses counts.
	PrivMissCycles ID
	// Cache level gauges: 0=L0, 1=L1, 2=LLC banks.
	LevelAccesses, LevelMisses, LevelEvictions [3]ID
	// Coherence substrate.
	DirEntries, DirCacheHits, DirCacheMisses ID
	// Memory controllers (gauges; the name MemReads2 is kept because
	// the benchmark compiles against it).
	MemReads2, MemWritebacks, MemWaitCycles ID
	// Warm-up and measurement wall time (microseconds), published once
	// per run end.
	PhaseWarmupMicros, PhaseMeasureMicros ID
	// Runner bookkeeping.
	Sims, Jobs ID
}

// RegisterSimMetrics installs the standard schema on reg.
func RegisterSimMetrics(reg *Registry) *SimMetrics {
	m := &SimMetrics{
		Refs:               reg.CounterID("sim_refs_total"),
		PrivMisses:         reg.CounterID("sim_priv_misses_total"),
		PrivMissCycles:     reg.CounterID("sim_priv_miss_cycles_total"),
		LLCMisses:          reg.CounterID("sim_llc_misses_total"),
		C2CClean:           reg.CounterID("sim_c2c_clean_total"),
		C2CDirty:           reg.CounterID("sim_c2c_dirty_total"),
		Invalidations:      reg.CounterID("sim_invalidations_total"),
		Upgrades:           reg.CounterID("sim_upgrades_total"),
		DirEntries:         reg.GaugeID("dir_entries"),
		DirCacheHits:       reg.GaugeID("dircache_hits"),
		DirCacheMisses:     reg.GaugeID("dircache_misses"),
		MemReads2:          reg.GaugeID("mem_reads"),
		MemWritebacks:      reg.GaugeID("mem_writebacks"),
		MemWaitCycles:      reg.GaugeID("mem_wait_cycles"),
		PhaseWarmupMicros:  reg.GaugeID("phase_warmup_micros"),
		PhaseMeasureMicros: reg.GaugeID("phase_measure_micros"),
		Sims:               reg.CounterID("runner_sims_total"),
		Jobs:               reg.CounterID("runner_jobs_total"),
	}
	for i, lv := range [3]string{"l0", "l1", "llc"} {
		m.LevelAccesses[i] = reg.GaugeID("cache_" + lv + "_accesses")
		m.LevelMisses[i] = reg.GaugeID("cache_" + lv + "_misses")
		m.LevelEvictions[i] = reg.GaugeID("cache_" + lv + "_evictions")
	}
	return m
}
