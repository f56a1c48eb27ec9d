// Package memctrl models the off-chip memory controllers: the final,
// highest-latency stop for a request that misses everywhere on chip. The
// paper's machine has a flat 150-cycle memory latency; we add FCFS
// controller queueing so that destructive cache interference "spills
// over... and puts additional pressure on the memory controllers" as §I
// describes.
package memctrl

import (
	"fmt"

	"consim/internal/sim"
)

// Config sizes the memory system.
type Config struct {
	// Controllers is the number of memory controllers; addresses stripe
	// across them by block.
	Controllers int
	// Latency is the unloaded access latency (Table III: 150 cycles).
	Latency sim.Cycle
	// Occupancy is how long one request holds a controller before the
	// next can start (DRAM burst occupancy).
	Occupancy sim.Cycle
	// Nodes maps each controller to the mesh node where it attaches; len
	// must equal Controllers.
	Nodes []int
}

// DefaultConfig places four controllers at the corners of a 4x4 mesh with
// the paper's 150-cycle latency.
func DefaultConfig() Config {
	return Config{
		Controllers: 4,
		Latency:     150,
		Occupancy:   20,
		Nodes:       []int{0, 3, 12, 15},
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Controllers <= 0 {
		return fmt.Errorf("memctrl: non-positive controller count %d", c.Controllers)
	}
	if len(c.Nodes) != c.Controllers {
		return fmt.Errorf("memctrl: %d controllers but %d attach nodes", c.Controllers, len(c.Nodes))
	}
	if c.Latency == 0 {
		return fmt.Errorf("memctrl: zero memory latency")
	}
	if c.Occupancy == 0 {
		return fmt.Errorf("memctrl: zero controller occupancy")
	}
	return nil
}

// Mem is the set of memory controllers.
type Mem struct {
	cfg  Config
	busy []sim.Cycle

	Reads      uint64
	Writebacks uint64
	WaitSum    sim.Cycle
}

// New builds the memory system from cfg.
func New(cfg Config) *Mem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Mem{cfg: cfg, busy: make([]sim.Cycle, cfg.Controllers)}
}

// Config returns the configuration.
func (m *Mem) Config() Config { return m.cfg }

// Controller returns the controller index serving addr.
func (m *Mem) Controller(addr sim.Addr) int {
	return int(sim.BlockID(addr) % uint64(m.cfg.Controllers))
}

// Node returns the mesh node the controller for addr attaches to.
func (m *Mem) Node(addr sim.Addr) int {
	return m.cfg.Nodes[m.Controller(addr)]
}

// Read issues a demand fetch arriving at the controller at now and
// returns the cycle at which data is available at the controller's mesh
// node.
func (m *Mem) Read(now sim.Cycle, addr sim.Addr) sim.Cycle {
	c := m.Controller(addr)
	start := sim.Max(now, m.busy[c])
	m.WaitSum += start - now
	m.busy[c] = start + m.cfg.Occupancy
	m.Reads++
	return start + m.cfg.Latency
}

// Writeback retires a dirty eviction arriving at now. Writebacks consume
// controller occupancy (delaying later reads) but no requester waits on
// them.
func (m *Mem) Writeback(now sim.Cycle, addr sim.Addr) {
	c := m.Controller(addr)
	start := sim.Max(now, m.busy[c])
	m.busy[c] = start + m.cfg.Occupancy
	m.Writebacks++
}

// QueueDepth estimates how many requests are queued or in service
// across all controllers at now: each controller's remaining busy time
// divided by its per-request occupancy, rounded up. It is a live-load
// gauge for observability, not part of the timing model.
func (m *Mem) QueueDepth(now sim.Cycle) int {
	depth := sim.Cycle(0)
	for _, b := range m.busy {
		if b > now {
			depth += (b - now + m.cfg.Occupancy - 1) / m.cfg.Occupancy
		}
	}
	return int(depth)
}

// AvgWait returns mean queueing cycles per demand read.
func (m *Mem) AvgWait() float64 {
	if m.Reads == 0 {
		return 0
	}
	return float64(m.WaitSum) / float64(m.Reads)
}

// ResetStats zeroes the counters.
func (m *Mem) ResetStats() {
	m.Reads, m.Writebacks, m.WaitSum = 0, 0, 0
}

// SyncBusy copies per-controller busy state from src, leaving counters
// untouched. The parallel engine re-bases each domain's controller
// replica from the live model at every window barrier.
func (m *Mem) SyncBusy(src *Mem) { copy(m.busy, src.busy) }

// FoldBusyMax folds a replica's busy state into m by per-controller max
// (replicas only ever push busy-until forward from the shared base).
func (m *Mem) FoldBusyMax(repl *Mem) {
	for i, b := range repl.busy {
		if b > m.busy[i] {
			m.busy[i] = b
		}
	}
}
