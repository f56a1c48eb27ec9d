package mesh

import "consim/internal/sim"

// Model is the fast analytic mesh model used inside the consolidation
// sweeps. It charges every message (hops+1)*PipeStages + flits-1, read
// from a hop table built once per machine: the flit-level Network's
// latency for a lone packet through Table III's 3-stage routers (asserted
// equal by tests). It keeps no load state, so a message's latency does
// not depend on the traffic before it.
//
// Queueing is left out on evidence: replaying the message streams the
// sweeps route (the 16-core mix, one memory controller, a 64-core chip)
// into the flit-level Network at their recorded cycles lands them 0.03
// to 0.22 cycles per message late on average (internal/core's
// TestMeshReplayNearUnloaded gates the bound; EXPERIMENTS.md has the
// numbers). The blocking cores inject far below the mesh's saturation
// point. Deeper pipelines than the buffers cover are the exception: at
// five stages Network's credit loop delays even a lone 5-flit packet by
// 2 cycles, which this model does not charge.
type Model struct {
	pipe sim.Cycle

	// hops holds the dimension-order hop count for every (src, dst)
	// pair, row-major by source. A mesh whose hop count overflows 16 bits
	// has at least 2^16 nodes, so its table (2^32 entries) could not be
	// allocated anyway.
	hops []uint16
	n    int

	// Transfers counts routed messages and HopsSum their hops, so
	// HopsSum/Transfers is the mean path length in reports.
	Transfers uint64
	HopsSum   uint64

	// Log, when it has spare capacity, records every message Latency
	// routes until it is full; nil (the default) records nothing.
	// Diagnostics use it to replay a run's traffic into the flit-level
	// Network.
	Log []Transfer
}

// Transfer is one message as Model.Log records it: injection cycle,
// endpoints and length.
type Transfer struct {
	At       sim.Cycle
	Src, Dst int
	Flits    int
}

// NewModel returns an analytic model over g with the given router
// pipeline depth.
func NewModel(g Geometry, pipeStages int) *Model {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if pipeStages <= 0 {
		panic("mesh: non-positive pipeline depth")
	}
	n := g.Nodes()
	m := &Model{pipe: sim.Cycle(pipeStages), hops: make([]uint16, n*n), n: n}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			m.hops[src*n+dst] = uint16(g.Hops(src, dst))
		}
	}
	return m
}

// Latency routes one message of the given flit count from src to dst
// starting at now and returns the cycle at which the tail arrives at dst:
// one router pipeline per hop plus ejection, then tail serialization.
func (m *Model) Latency(now sim.Cycle, src, dst, flits int) sim.Cycle {
	flits = max(flits, 1)
	if len(m.Log) < cap(m.Log) {
		m.Log = append(m.Log, Transfer{now, src, dst, flits})
	}
	h := m.hops[src*m.n+dst]
	m.Transfers++
	m.HopsSum += uint64(h)
	return now + (sim.Cycle(h)+1)*m.pipe + sim.Cycle(flits-1)
}

// Unloaded returns the latency Latency charges between src and dst for a
// packet of the given flit count, without counting a transfer.
func (m *Model) Unloaded(src, dst, flits int) sim.Cycle {
	return (sim.Cycle(m.hops[src*m.n+dst])+1)*m.pipe + sim.Cycle(max(flits, 1)-1)
}

// AvgHops returns the mean hop count per transfer.
func (m *Model) AvgHops() float64 {
	if m.Transfers == 0 {
		return 0
	}
	return float64(m.HopsSum) / float64(m.Transfers)
}

// ResetStats zeroes the transfer counters.
func (m *Model) ResetStats() {
	m.Transfers, m.HopsSum = 0, 0
}
