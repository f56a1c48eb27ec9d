// Package core composes every substrate — caches, directory coherence,
// mesh interconnect, memory controllers, workload generators, the VM
// layer and the hypervisor scheduler — into the consolidated-server CMP
// simulator that the paper's evaluation runs on. This is the paper's
// primary contribution: a methodology for running multiple multi-threaded
// commercial workloads, isolated in VMs, on one chip and measuring how
// they interfere through the shared memory system.
package core

import (
	"fmt"
	"strings"

	"consim/internal/cache"
	"consim/internal/coherence"
	"consim/internal/memctrl"
	"consim/internal/mesh"
	"consim/internal/obs"
	"consim/internal/sched"
	"consim/internal/sim"
	"consim/internal/workload"
)

// Table III machine parameters at full scale.
const (
	DefaultCores      = 16
	DefaultL0Bytes    = 8 << 10  // 8 KB, 1 cycle
	DefaultL1Bytes    = 64 << 10 // 64 KB, 2 cycles
	DefaultLLCBytes   = 16 << 20 // 16 MB aggregate, 6 cycles
	DefaultL0Latency  = sim.Cycle(1)
	DefaultL1Latency  = sim.Cycle(2)
	DefaultLLCLatency = sim.Cycle(6)
	DefaultMemLatency = sim.Cycle(150)
	DefaultPipeStages = 3
)

// Message sizes on the interconnect, in flits (16-byte links: a 64-byte
// line is four body flits plus a head).
const (
	CtrlFlits = 1
	DataFlits = 5
)

// Occupancies for contention modeling.
const (
	bankOccupancy = sim.Cycle(2)
	dirOccupancy  = sim.Cycle(2)
	dirLatency    = sim.Cycle(2)
)

// Config describes one simulation run.
type Config struct {
	// Cores is the machine size (paper: 16).
	Cores int
	// GroupSize is the number of cores sharing one LLC bank group: 1 =
	// private, 2/4/8 = shared-N-way, Cores = fully shared.
	GroupSize int
	// Policy is the hypervisor thread-placement policy.
	Policy sched.Policy
	// Workloads lists the consolidated VMs; each runs ThreadsPerVM
	// threads. One entry = an isolation run.
	Workloads []workload.Spec
	// ThreadsPerVM is the thread count per workload (paper: 4).
	ThreadsPerVM int
	// TimesliceCycles enables the §VII over-committed mode: when the
	// scheduled thread count exceeds the core count, threads time-share
	// cores and the hypervisor rotates the running thread every
	// TimesliceCycles. Zero (the paper's configuration) forbids
	// over-commitment.
	TimesliceCycles sim.Cycle

	// Scale divides all cache capacities and workload footprints by the
	// same factor, preserving the capacity ratios that drive behaviour.
	// 1 = paper scale.
	Scale int

	// Seed makes runs reproducible.
	Seed uint64

	// WarmupRefs and MeasureRefs are per-core reference budgets for the
	// warm-up and measurement phases.
	WarmupRefs  uint64
	MeasureRefs uint64

	// Memory system; zero value gets DefaultConfig with the paper's 150
	// cycles.
	Mem memctrl.Config

	// DirCacheEntries sizes each home node's directory cache (entries).
	// A node reaches only Entries>>k of them, k = TrailingZeros(Cores):
	// lines are striped across home nodes by the block number's low bits
	// and each cache picks its set from the same bits, so a node can
	// index only the sets whose low k bits are its own (8·max(1, sets>>k)
	// lines when there are fewer than 2^k sets). At 16 cores the default
	// 32768 entries hold 2048 lines per node; every recorded result was
	// produced at that effective capacity.
	DirCacheEntries int

	// PipeStages overrides the mesh router pipeline depth (default
	// Table III's 3-stage speculative pipeline). Used by ablations.
	PipeStages int

	// Sources optionally replaces each VM's statistical generator with a
	// recorded reference stream (one entry per workload; nil entries
	// fall back to the generator). This is the checkpoint-replay path:
	// the same captured transactions run in every simulation.
	Sources []workload.Source

	// QoSPartition way-partitions every shared LLC bank among the VMs
	// scheduled on its group — the performance-isolation mechanism the
	// paper's conclusion calls for (and its §VI related work proposes).
	// It has no effect on banks hosting a single VM.
	QoSPartition bool
	// QoSShares weights the partition (one relative share per VM;
	// empty = equal shares). A prioritized VM receives a proportionally
	// larger way quota, CQoS-style.
	QoSShares []int

	// LLCBytes optionally overrides the aggregate LLC capacity before
	// scaling (default Table III 16MB).
	LLCBytes int

	// Sample enables interval-sampled simulation: detailed measurement
	// windows with functional fast-forward between them and early stop on
	// per-VM CI convergence (see sample.go). The zero value runs the full
	// detailed measurement, bit-identical to builds without the engine.
	// Incompatible with over-commitment.
	Sample SampleConfig

	// Pdes selects the split-transaction parallel discrete-event engine
	// (pdes.go): 0 or 1 (the default) runs the sequential engine,
	// bit-identical to builds without it; N > 1 partitions the active
	// cores into up to N worker domains that advance independently inside
	// bounded time windows, replaying cross-domain coherence at each
	// window barrier. This legitimately changes the simulated stream —
	// results are statistical estimates held to harness.DefaultPdesBound
	// of the sequential run (TestParallelEquivalence), deterministic per
	// (seed, Pdes).
	// Incompatible with sampling and trace sources.
	Pdes int

	// PdesReplayWorkers sharded the barrier replay by LLC bank group.
	// The sharded replay matched the serial one bit for bit and was never
	// faster, so it was removed: Validate and NewSystem ignore this
	// field, and every value runs the serial replay.
	//
	// Deprecated: results never depended on it; the field goes with the
	// parallel engine.
	PdesReplayWorkers int

	// PdesPipeline selected window/replay pipelining, which was never
	// faster than the serial replay and was removed. Validate rejects
	// true.
	//
	// Deprecated: leave it false; the field goes with the parallel engine.
	PdesPipeline bool

	// Obs attaches the observability hooks (metric shard, tracer lane,
	// progress) the run publishes through; nil runs unobserved. The
	// hot-path publish cadence keeps the steady-state loop
	// allocation-free either way.
	Obs *obs.RunHooks `json:"-"`
}

// DefaultConfig returns the paper's machine around the given workloads.
func DefaultConfig(specs ...workload.Spec) Config {
	return Config{
		Cores:           DefaultCores,
		GroupSize:       4,
		Policy:          sched.Affinity,
		Workloads:       specs,
		ThreadsPerVM:    4,
		Scale:           1,
		Seed:            1,
		WarmupRefs:      400_000,
		MeasureRefs:     1_200_000,
		Mem:             memctrl.DefaultConfig(),
		DirCacheEntries: 32768,
		LLCBytes:        DefaultLLCBytes,
	}
}

// TotalThreads returns the machine's total scheduled thread count.
func (c Config) TotalThreads() int { return len(c.Workloads) * c.ThreadsPerVM }

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > coherence.MaxNodes {
		return fmt.Errorf("core: core count %d out of 1..%d", c.Cores, coherence.MaxNodes)
	}
	if c.GroupSize <= 0 || c.Cores%c.GroupSize != 0 {
		return fmt.Errorf("core: group size %d does not divide %d cores", c.GroupSize, c.Cores)
	}
	if len(c.Workloads) == 0 {
		return fmt.Errorf("core: no workloads configured")
	}
	if len(c.Workloads) > cache.MaxVMs {
		return fmt.Errorf("core: %d VMs exceed the %d a cache line's VM tag tells apart", len(c.Workloads), cache.MaxVMs)
	}
	if len(c.Sources) > 0 && len(c.Sources) != len(c.Workloads) {
		return fmt.Errorf("core: %d trace sources for %d VMs", len(c.Sources), len(c.Workloads))
	}
	if len(c.QoSShares) > 0 {
		if len(c.QoSShares) != len(c.Workloads) {
			return fmt.Errorf("core: %d QoS shares for %d VMs", len(c.QoSShares), len(c.Workloads))
		}
		for v, sh := range c.QoSShares {
			if sh <= 0 {
				return fmt.Errorf("core: non-positive QoS share for VM %d", v)
			}
		}
	}
	if c.ThreadsPerVM <= 0 {
		return fmt.Errorf("core: non-positive threads per VM %d", c.ThreadsPerVM)
	}
	if c.TotalThreads() > c.Cores {
		if c.TimesliceCycles == 0 {
			return fmt.Errorf("core: %d threads exceed %d cores (set TimesliceCycles to over-commit)", c.TotalThreads(), c.Cores)
		}
		if c.TotalThreads() > 8*c.Cores {
			return fmt.Errorf("core: over-commitment %d threads on %d cores exceeds the 8x slot limit", c.TotalThreads(), c.Cores)
		}
	}
	if c.Scale <= 0 {
		return fmt.Errorf("core: non-positive scale %d", c.Scale)
	}
	if c.MeasureRefs == 0 {
		return fmt.Errorf("core: zero measurement budget")
	}
	if err := c.validateUncore(); err != nil {
		return err
	}
	if err := c.validateSample(); err != nil {
		return err
	}
	if err := c.validatePdes(); err != nil {
		return err
	}
	for _, w := range c.Workloads {
		if err := w.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// dirCacheAssoc is the associativity of each home node's directory cache.
const dirCacheAssoc = 8

// validateUncore checks the LLC capacity, the memory controllers, the
// directory caches and the mesh routers against the machine the core
// count derives. Zero values are NewSystem's to default (16 MB LLC,
// corner controllers, 32768 entries, 3-stage routers) and pass.
func (c Config) validateUncore() error {
	if c.LLCBytes < 0 {
		return fmt.Errorf("core: negative LLC capacity %d bytes (0 takes the default %d)", c.LLCBytes, DefaultLLCBytes)
	}
	if c.PipeStages < 0 {
		return fmt.Errorf("core: negative router pipeline depth %d (0 takes the default %d)", c.PipeStages, DefaultPipeStages)
	}
	if c.Mem.Controllers != 0 {
		if err := c.Mem.Validate(); err != nil {
			return err
		}
		g := mesh.DefaultNetConfig(c.Cores).Geometry
		for i, n := range c.Mem.Nodes {
			if n < 0 || n >= g.Nodes() {
				return fmt.Errorf("core: memory controller %d attaches at node %d, outside the %dx%d mesh of a %d-core machine (leave Mem zero to place controllers at the corners)",
					i, n, g.Width, g.Height, c.Cores)
			}
		}
	}
	if c.DirCacheEntries != 0 {
		dc := cache.Config{SizeBytes: c.DirCacheEntries * sim.LineBytes, Assoc: dirCacheAssoc}
		if err := dc.Validate(); err != nil {
			return fmt.Errorf("core: %d directory cache entries per node: %w", c.DirCacheEntries, err)
		}
	}
	return nil
}

// scaledBytes divides a capacity by Scale with a floor of one line per
// way group so tiny test scales stay valid power-of-two geometries.
func (c Config) scaledBytes(full int) int {
	b := full / c.Scale
	// Round down to a power-of-two line count to keep set counts valid.
	lines := b / sim.LineBytes
	if lines < 16 {
		lines = 16
	}
	p := 1
	for p*2 <= lines {
		p *= 2
	}
	return p * sim.LineBytes
}

// l0Bytes, l1Bytes and llcGroupBytes return the scaled capacities.
func (c Config) l0Bytes() int { return c.scaledBytes(DefaultL0Bytes) }
func (c Config) l1Bytes() int { return c.scaledBytes(DefaultL1Bytes) }

// llcGroupBytes returns each group's LLC capacity: the aggregate divided
// evenly across groups (1MB per core at paper scale, Table III).
func (c Config) llcGroupBytes() int {
	total := c.LLCBytes
	if total == 0 {
		total = DefaultLLCBytes
	}
	perCore := total / c.Cores
	return c.scaledBytes(perCore * c.GroupSize)
}

// CoreCapacity returns how many threads each core may hold.
func (c Config) CoreCapacity() int {
	cap := (c.TotalThreads() + c.Cores - 1) / c.Cores
	if cap < 1 {
		cap = 1
	}
	return cap
}

// Placement returns the hypervisor's initial thread placement, the one
// NewSystem starts from: for each VM, the cores its threads run on.
func (c Config) Placement() ([][]int, error) {
	vmThreads := make([]int, len(c.Workloads))
	for v := range vmThreads {
		vmThreads[v] = c.ThreadsPerVM
	}
	return sched.AssignWithCapacity(c.Policy, c.Cores, c.GroupSize, c.CoreCapacity(), vmThreads, c.Seed^0xa5a5)
}

// Groups returns the number of LLC bank groups.
func (c Config) Groups() int { return c.Cores / c.GroupSize }

// Label names the configuration for traces, manifests and progress
// lines: workloads, LLC organization, policy, scale and seed.
func (c Config) Label() string {
	names := make([]string, len(c.Workloads))
	for i, w := range c.Workloads {
		names[i] = w.Name
	}
	label := fmt.Sprintf("%s %s/%s", strings.Join(names, "+"), c.SharingName(), c.Policy)
	if c.Scale > 1 {
		label += fmt.Sprintf(" 1/%d", c.Scale)
	}
	if c.Seed != 1 {
		label += fmt.Sprintf(" seed=%d", c.Seed)
	}
	return label
}

// SharingName returns the paper's label for the cache organization.
func (c Config) SharingName() string {
	switch {
	case c.GroupSize == 1:
		return "private"
	case c.GroupSize == c.Cores:
		return "shared"
	default:
		return fmt.Sprintf("shared-%d-way", c.GroupSize)
	}
}
