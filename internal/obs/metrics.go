package obs

import (
	"fmt"
	"math/bits"
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
	// Histogram values are observation distributions over power-of-two
	// buckets; the value slot carries the observation count.
	Histogram
)

// HistBuckets is the bucket count of every histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i), with
// the last bucket absorbing overflow. 2^30 cycles dwarfs any latency the
// simulated machine can produce.
const HistBuckets = 31

// ID names a registered metric; it indexes every shard's slot array.
type ID int

// Desc describes one registered metric.
type Desc struct {
	Name string
	Kind Kind
	Help string
}

// Registry holds metric descriptors and the shards publishing to them.
// Registration happens once, up front; NewShard freezes the schema so
// shard slot arrays never reallocate (the hot path indexes them without
// synchronization beyond the atomic slot itself).
type Registry struct {
	mu     sync.Mutex
	descs  []Desc
	byName map[string]ID
	shards []*Shard
	frozen bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]ID)}
}

func (r *Registry) register(name string, kind Kind, help string) ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byName[name]; ok {
		if r.descs[id].Kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return id
	}
	if r.frozen {
		panic(fmt.Sprintf("obs: metric %q registered after the first shard", name))
	}
	id := ID(len(r.descs))
	r.descs = append(r.descs, Desc{Name: name, Kind: kind, Help: help})
	r.byName[name] = id
	return id
}

// CounterID registers (or looks up) a counter.
func (r *Registry) CounterID(name, help string) ID { return r.register(name, Counter, help) }

// GaugeID registers (or looks up) a gauge.
func (r *Registry) GaugeID(name, help string) ID { return r.register(name, Gauge, help) }

// HistogramID registers (or looks up) a histogram.
func (r *Registry) HistogramID(name, help string) ID { return r.register(name, Histogram, help) }

// Descs returns the registered metric descriptors in ID order.
func (r *Registry) Descs() []Desc {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Desc(nil), r.descs...)
}

// NewShard allocates a shard over the registered schema and freezes
// further registration. Each simulation (or worker) owns one shard:
// writes are uncontended, and readers aggregate across shards with
// atomic loads, so a live observer never races the hot path.
func (r *Registry) NewShard() *Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frozen = true
	sh := &Shard{reg: r, slots: make([]atomic.Uint64, len(r.descs))}
	for id, d := range r.descs {
		if d.Kind == Histogram {
			if sh.hists == nil {
				sh.hists = make([][]atomic.Uint64, len(r.descs))
			}
			sh.hists[id] = make([]atomic.Uint64, HistBuckets)
		}
	}
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

// HistCounts returns a histogram's aggregated bucket counts.
func (r *Registry) HistCounts(id ID) [HistBuckets]uint64 {
	r.mu.Lock()
	shards := r.shards
	r.mu.Unlock()
	var counts [HistBuckets]uint64
	for _, sh := range shards {
		if sh.hists == nil || sh.hists[id] == nil {
			continue
		}
		for b := range counts {
			counts[b] += sh.hists[id][b].Load()
		}
	}
	return counts
}

// HistQuantile returns an upper-bound estimate of the q-quantile
// (0 < q <= 1) of a histogram: the top of the first bucket at which the
// cumulative count reaches q. Zero when the histogram is empty.
func (r *Registry) HistQuantile(id ID, q float64) uint64 {
	counts := r.HistCounts(id)
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, c := range counts {
		cum += c
		if cum >= target {
			if b == 0 {
				return 0
			}
			return 1<<uint(b) - 1
		}
	}
	return 1<<uint(HistBuckets) - 1
}

// Snapshot renders every metric for export (expvar / debug dumps):
// counters and gauges as totals, histograms as count plus p50/p99
// upper-bound estimates. Keys are sorted for stable output.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any, len(r.descs))
	for id, d := range r.Descs() {
		switch d.Kind {
		case Histogram:
			out[d.Name] = map[string]uint64{
				"count": r.Value(ID(id)),
				"p50":   r.HistQuantile(ID(id), 0.50),
				"p99":   r.HistQuantile(ID(id), 0.99),
			}
		default:
			out[d.Name] = r.Value(ID(id))
		}
	}
	return out
}

// Shard is one writer's slice of the registry. A shard's writer may be
// any single goroutine at a time (slots are atomic, so even concurrent
// writers merely contend); readers aggregate through the Registry.
type Shard struct {
	reg   *Registry
	slots []atomic.Uint64
	hists [][]atomic.Uint64 // non-nil only when histograms registered
}

// Add increments a counter slot. Allocation-free.
func (s *Shard) Add(id ID, n uint64) { s.slots[id].Add(n) }

// Set publishes a gauge slot. Allocation-free.
func (s *Shard) Set(id ID, v uint64) { s.slots[id].Store(v) }

// Observe records one histogram observation. Allocation-free.
func (s *Shard) Observe(id ID, v uint64) {
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	s.hists[id][b].Add(1)
	s.slots[id].Add(1)
}

// Value reads one slot of this shard.
func (s *Shard) Value(id ID) uint64 { return s.slots[id].Load() }

// MaxVMGauges bounds the per-VM LLC occupancy gauge set (the paper's
// machine holds at most 16 VMs).
const MaxVMGauges = 16

// SimMetrics is the standard simulator metric schema: the IDs every
// System publishes through its RunHooks. Registering the schema on a
// fresh registry is what NewObserver does.
type SimMetrics struct {
	// Hot-path counters, published as deltas on a cadence.
	Refs, PrivMisses, LLCMisses ID
	C2CClean, C2CDirty          ID
	MemReads, Invalidations     ID
	Upgrades                    ID
	// Cache level gauges: 0=L0, 1=L1, 2=LLC banks.
	LevelAccesses, LevelMisses, LevelEvictions [3]ID
	// Coherence substrate.
	DirEntries, DirCacheHits, DirCacheMisses ID
	// Memory controllers (gauges; MemReads2 mirrors the controller-side
	// read count, distinct from the per-VM MemReads counter).
	MemReads2, MemWritebacks, MemWaitCycles, MemQueueDepth ID
	// Engine.
	EventQueueLen ID
	// LLC sharing snapshot.
	LLCResident, LLCReplicated ID
	OccVM                      [MaxVMGauges]ID
	// Latency distribution of private-cache misses.
	MissLatency ID
	// Interval-sampling engine (zero / idle under detailed runs). The
	// relative CI is published in parts-per-million so the integer slot
	// carries the convergence signal losslessly enough for live display.
	SampleWindows, SampleDetailedRefs ID
	SampleSkippedRefs, SampleRelCIPPM ID
	// Split-transaction parallel engine (zero / idle under the
	// sequential engine).
	PdesWorkers, PdesDomains         ID
	PdesWindows, PdesOps, PdesStalls ID
	// Phase decomposition (microseconds), published once per run end.
	PhaseWarmupMicros, PhaseMeasureMicros                 ID
	PdesWindowMicros, PdesReplayMicros, PdesBarrierMicros ID
	SampleDetailedMicros, SampleFFMicros                  ID
	// Runner bookkeeping.
	Sims, Jobs ID
}

// RegisterSimMetrics installs the standard schema on reg.
func RegisterSimMetrics(reg *Registry) *SimMetrics {
	m := &SimMetrics{
		Refs:           reg.CounterID("sim_refs_total", "memory references simulated"),
		PrivMisses:     reg.CounterID("sim_priv_misses_total", "private-cache misses"),
		LLCMisses:      reg.CounterID("sim_llc_misses_total", "LLC misses"),
		C2CClean:       reg.CounterID("sim_c2c_clean_total", "clean cache-to-cache transfers"),
		C2CDirty:       reg.CounterID("sim_c2c_dirty_total", "dirty cache-to-cache transfers"),
		MemReads:       reg.CounterID("sim_mem_reads_total", "demand fetches that left the chip"),
		Invalidations:  reg.CounterID("sim_invalidations_total", "remote copies invalidated"),
		Upgrades:       reg.CounterID("sim_upgrades_total", "shared-to-modified upgrades"),
		DirEntries:     reg.GaugeID("dir_entries", "coherence directory entries tracked"),
		DirCacheHits:   reg.GaugeID("dircache_hits", "directory cache hits since measure start"),
		DirCacheMisses: reg.GaugeID("dircache_misses", "directory cache misses since measure start"),
		MemReads2:      reg.GaugeID("mem_reads", "controller demand reads since measure start"),
		MemWritebacks:  reg.GaugeID("mem_writebacks", "controller writebacks since measure start"),
		MemWaitCycles:  reg.GaugeID("mem_wait_cycles", "controller queueing cycles since measure start"),
		MemQueueDepth:  reg.GaugeID("mem_queue_depth", "requests currently queued at controllers"),
		EventQueueLen:  reg.GaugeID("eventq_len", "simulator event queue length"),
		LLCResident:    reg.GaugeID("llc_resident_lines", "distinct lines resident in >=1 LLC bank"),
		LLCReplicated:  reg.GaugeID("llc_replicated_lines", "distinct lines resident in >=2 LLC banks"),
		MissLatency:    reg.HistogramID("miss_latency_cycles", "private-miss service latency"),
		Sims:           reg.CounterID("runner_sims_total", "simulations actually executed"),
		Jobs:           reg.CounterID("runner_jobs_total", "runner jobs completed"),

		SampleWindows:      reg.GaugeID("sample_windows", "detailed windows simulated (0 = detailed run)"),
		SampleDetailedRefs: reg.GaugeID("sample_detailed_refs", "per-core references measured in detail"),
		SampleSkippedRefs:  reg.GaugeID("sample_skipped_refs", "references fast-forwarded functionally"),
		SampleRelCIPPM:     reg.GaugeID("sample_rel_ci_ppm", "worst per-VM relative 95% CI half-width, parts per million"),

		PdesWorkers: reg.GaugeID("pdes_workers", "configured pdes worker count (0 = sequential engine)"),
		PdesDomains: reg.GaugeID("pdes_domains", "worker domains formed over the active cores"),
		PdesWindows: reg.GaugeID("pdes_windows", "parallel windows completed"),
		PdesOps:     reg.GaugeID("pdes_ops", "shared-tier operations replayed at barriers"),
		PdesStalls:  reg.GaugeID("pdes_stalls", "barriers where the spine waited on a worker domain"),

		PhaseWarmupMicros:    reg.GaugeID("phase_warmup_micros", "wall time in the warm-up phase"),
		PhaseMeasureMicros:   reg.GaugeID("phase_measure_micros", "wall time in the measurement phase"),
		PdesWindowMicros:     reg.GaugeID("phase_pdes_window_micros", "spine wall time inside pdes windows"),
		PdesReplayMicros:     reg.GaugeID("phase_pdes_replay_micros", "wall time in the serial barrier op replay"),
		PdesBarrierMicros:    reg.GaugeID("phase_pdes_barrier_micros", "wall time folding/resyncing replicas at barriers"),
		SampleDetailedMicros: reg.GaugeID("phase_sample_detailed_micros", "wall time in detailed sampling windows"),
		SampleFFMicros:       reg.GaugeID("phase_sample_ff_micros", "wall time in functional fast-forward"),
	}
	levels := [3]string{"l0", "l1", "llc"}
	for i, lv := range levels {
		m.LevelAccesses[i] = reg.GaugeID("cache_"+lv+"_accesses", "accesses since measure start")
		m.LevelMisses[i] = reg.GaugeID("cache_"+lv+"_misses", "misses since measure start")
		m.LevelEvictions[i] = reg.GaugeID("cache_"+lv+"_evictions", "evictions since measure start")
	}
	for v := 0; v < MaxVMGauges; v++ {
		m.OccVM[v] = reg.GaugeID(fmt.Sprintf("llc_lines_vm%d", v), "LLC lines inserted by this VM (last snapshot)")
	}
	return m
}
