package mesh

import (
	"fmt"

	"consim/internal/sim"
)

// Routing selects the network's routing algorithm.
type Routing int

// Routing algorithms.
const (
	// DOR is deterministic dimension-order (X then Y) routing — the
	// paper's configuration.
	DOR Routing = iota
	// O1TURN picks X-then-Y or Y-then-X per packet at injection,
	// balancing load across the two minimal orders; each order runs in
	// its own virtual-channel class to stay deadlock-free.
	O1TURN
)

// String names the algorithm.
func (r Routing) String() string {
	if r == O1TURN {
		return "o1turn"
	}
	return "dor"
}

// Packet is one message traversing the network.
type Packet struct {
	ID       uint64
	Src, Dst int
	Flits    int
	// YFirst routes Y-then-X (O1TURN's second class).
	YFirst   bool
	Injected sim.Cycle
	// Delivered is set by the network when the tail flit ejects.
	Delivered sim.Cycle
}

// NetConfig sizes the flit-level network.
type NetConfig struct {
	Geometry   Geometry
	VCs        int // virtual channels per input port
	BufDepth   int // flit buffer depth per VC
	PipeStages int // router pipeline depth (paper: 3, speculative VA/SA)
	Routing    Routing
}

// DefaultNetConfig returns the paper's configuration for n-node chips
// arranged as close to square as possible (16 nodes -> 4x4).
func DefaultNetConfig(nodes int) NetConfig {
	w := 1
	for w*w < nodes {
		w++
	}
	h := (nodes + w - 1) / w
	return NetConfig{
		Geometry:   Geometry{Width: w, Height: h},
		VCs:        4,
		BufDepth:   4,
		PipeStages: 3,
	}
}

// Validate reports whether the configuration is usable.
func (c NetConfig) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.VCs <= 0 || c.BufDepth <= 0 || c.PipeStages <= 0 {
		return fmt.Errorf("mesh: non-positive VCs/buffers/pipeline (%d/%d/%d)", c.VCs, c.BufDepth, c.PipeStages)
	}
	if c.Routing == O1TURN && c.VCs < 2 {
		return fmt.Errorf("mesh: O1TURN needs at least 2 VCs for its two deadlock-free classes")
	}
	return nil
}

// Network is the flit-level mesh. Drive it with Inject and Tick; finished
// packets arrive on the Delivered slice (drained by the caller).
type Network struct {
	cfg     NetConfig
	routers []*router
	now     sim.Cycle
	nextID  uint64
	rng     *sim.RNG // O1TURN order selection

	// Delivered accumulates ejected packets; callers drain it.
	Delivered []*Packet

	// Stats.
	InjectedPkts  uint64
	DeliveredPkts uint64
	LatencySum    sim.Cycle
}

// NewNetwork builds a flit-level mesh from cfg.
func NewNetwork(cfg NetConfig) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{cfg: cfg, rng: sim.NewRNG(0x0172)}
	n.routers = make([]*router, cfg.Geometry.Nodes())
	for i := range n.routers {
		n.routers[i] = newRouter(i, cfg)
	}
	return n
}

// Now returns the current cycle.
func (n *Network) Now() sim.Cycle { return n.now }

// Config returns the network configuration.
func (n *Network) Config() NetConfig { return n.cfg }

// Inject queues a packet of the given flit count at src for dst. It
// returns the packet so callers can watch for delivery. Injection is
// accepted unconditionally into the source queue; backpressure applies
// from the local port inward.
func (n *Network) Inject(src, dst, flits int) *Packet {
	if flits <= 0 {
		flits = 1
	}
	n.nextID++
	p := &Packet{ID: n.nextID, Src: src, Dst: dst, Flits: flits, Injected: n.now}
	if n.cfg.Routing == O1TURN {
		p.YFirst = n.rng.Bool(0.5)
	}
	n.routers[src].injectQ = append(n.routers[src].injectQ, p)
	n.InjectedPkts++
	return p
}

// Tick advances the network one cycle.
func (n *Network) Tick() {
	// Phase 1: all routers compute this cycle's switch traversals based
	// on state from the previous cycle.
	for _, r := range n.routers {
		r.allocate(n)
	}
	// Phase 2: move winning flits across the switch and the links, and
	// return credits.
	for _, r := range n.routers {
		r.traverse(n)
	}
	// Phase 3: accept new injections into free local-port VCs.
	for _, r := range n.routers {
		r.inject(n)
	}
	n.now++
}

// Run ticks the network for d cycles.
func (n *Network) Run(d sim.Cycle) {
	for i := sim.Cycle(0); i < d; i++ {
		n.Tick()
	}
}

// Drain ticks until all in-flight packets are delivered or the budget is
// exhausted; it returns true if the network fully drained. Tests use this
// to detect deadlock (a correct DOR VC network always drains).
func (n *Network) Drain(budget sim.Cycle) bool {
	for i := sim.Cycle(0); i < budget; i++ {
		if n.DeliveredPkts == n.InjectedPkts {
			return true
		}
		n.Tick()
	}
	return n.DeliveredPkts == n.InjectedPkts
}

// AvgLatency returns the mean injection-to-ejection packet latency.
func (n *Network) AvgLatency() float64 {
	if n.DeliveredPkts == 0 {
		return 0
	}
	return float64(n.LatencySum) / float64(n.DeliveredPkts)
}

func (n *Network) deliver(p *Packet) {
	p.Delivered = n.now
	n.Delivered = append(n.Delivered, p)
	n.DeliveredPkts++
	n.LatencySum += p.Delivered - p.Injected
}
