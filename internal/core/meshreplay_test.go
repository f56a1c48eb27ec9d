package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"consim/internal/memctrl"
	"consim/internal/mesh"
	"consim/internal/sched"
	"consim/internal/sim"
	"consim/internal/workload"
)

// recordMesh runs cfg on the sequential engine until the mesh model has
// routed n messages and returns the first n, in routing order.
func recordMesh(t *testing.T, cfg Config, n int) (*System, []mesh.Transfer) {
	t.Helper()
	sys := newSeededSystem(t, cfg)
	sys.net.Log = make([]mesh.Transfer, 0, n)
	for target := uint64(1000); len(sys.net.Log) < n; target += 1000 {
		if target > cfg.WarmupRefs+cfg.MeasureRefs {
			t.Fatalf("run ended after %d of %d messages", len(sys.net.Log), n)
		}
		sys.runUntil(target)
	}
	log := sys.net.Log
	sys.net.Log = nil
	return sys, log
}

// lateness summarises how far replayed deliveries land past a reference
// latency.
type lateness struct {
	mean   float64 // mean cycles late per message
	slower float64 // share of messages late at all
	over1  float64 // share more than 1 cycle late
	worst  sim.Cycle

	sum           sim.Cycle
	nSlow, nOver1 int
}

func (l *lateness) add(late sim.Cycle) {
	l.sum += late
	if late > 0 {
		l.nSlow++
	}
	if late > 1 {
		l.nOver1++
	}
	l.worst = max(l.worst, late)
}

func (l *lateness) finish(n int) {
	l.mean = float64(l.sum) / float64(n)
	l.slower = float64(l.nSlow) / float64(n)
	l.over1 = float64(l.nOver1) / float64(n)
}

// within reports whether l meets the replay bounds.
func (l *lateness) within() bool {
	return l.mean <= meshReplayMeanBound && l.over1 <= meshReplayOver1Bound
}

func (l *lateness) String() string {
	return fmt.Sprintf("mean +%.3f cycles, %.2f%% late, %.2f%% >1 cycle late, worst +%d",
		l.mean, 100*l.slower, 100*l.over1, l.worst)
}

// replayFlitLevel injects msgs into a flit-level mesh with the machine's
// geometry and router depth, each at its recorded cycle (open loop). It
// returns how late deliveries land against the analytic model's
// Unloaded latency and against the same packet sent alone through the
// flit-level network (the part that is queueing). Whenever the network
// is empty and the next message lies in its future, the gap is skipped:
// an idle network holds no flits and full credits, so only its
// arbitration pointers carry over.
func replayFlitLevel(t *testing.T, sys *System, msgs []mesh.Transfer) (vsModel, queueing lateness) {
	t.Helper()
	msgs = slices.Clone(msgs)
	slices.SortStableFunc(msgs, func(a, b mesh.Transfer) int {
		return cmp.Compare(a.At, b.At)
	})
	nc := mesh.DefaultNetConfig(sys.cfg.Cores)
	nc.PipeStages = sys.cfg.PipeStages
	if nc.Geometry != sys.geom {
		t.Fatalf("replay geometry %v, machine %v", nc.Geometry, sys.geom)
	}
	net := mesh.NewNetwork(nc)

	// A lone packet's latency depends only on its hop count and length:
	// every router is identical and it meets no other traffic.
	lone := map[[2]int]sim.Cycle{}
	loneLatency := func(p *mesh.Packet) sim.Cycle {
		k := [2]int{sys.geom.Hops(p.Src, p.Dst), p.Flits}
		if l, ok := lone[k]; ok {
			return l
		}
		n := mesh.NewNetwork(nc)
		q := n.Inject(p.Src, p.Dst, p.Flits)
		if !n.Drain(1 << 10) {
			t.Fatalf("lone packet %d->%d did not drain", p.Src, p.Dst)
		}
		lone[k] = q.Delivered - q.Injected
		return lone[k]
	}
	collect := func() {
		for _, p := range net.Delivered {
			lat := p.Delivered - p.Injected
			vsModel.add(lat - sys.net.Unloaded(p.Src, p.Dst, p.Flits))
			queueing.add(lat - loneLatency(p))
		}
		net.Delivered = net.Delivered[:0]
	}
	var shift sim.Cycle // recorded cycle minus network cycle
	for _, m := range msgs {
		for m.At-shift > net.Now() {
			if net.DeliveredPkts == net.InjectedPkts {
				shift = m.At - net.Now()
				break
			}
			net.Tick()
		}
		net.Inject(m.Src, m.Dst, m.Flits)
		collect()
	}
	if !net.Drain(1 << 20) {
		t.Fatal("flit-level replay did not drain")
	}
	collect()
	vsModel.finish(len(msgs))
	queueing.finish(len(msgs))
	return vsModel, queueing
}

// Replay bounds: replayed deliveries may land at most
// meshReplayMeanBound cycles per message late on average, with at most
// meshReplayOver1Bound of messages more than one cycle late. The worst
// config, the 64-core chip, measured +0.23 cycles and 5.6% over its
// first 60 000 messages (EXPERIMENTS.md), so the bounds leave about 2x
// margin.
const (
	meshReplayMeanBound  = 0.5
	meshReplayOver1Bound = 0.10
)

// meshReplayMsgs caps each config's recorded stream (the first messages
// of the run, cold-start bursts included) to keep the test to seconds.
const meshReplayMsgs = 15_000

// TestMeshReplayNearUnloaded is the evidence behind charging unloaded
// latency: the mesh traffic the sweeps generate, replayed into the
// flit-level network at its recorded cycles, lands within the bounds
// above of mesh.Model's Unloaded. The configs are the 4-VM mix at scale
// 16, the A2 and A3 ablations' most mesh-stressing points (one memory
// controller, five router stages) and, outside -short, the 64-core
// scaling-study chip.
//
// Five router stages miss the bound for a reason other than queueing:
// a 5-stage pipeline stretches the credit round trip past the 4-flit
// buffers, so the flit-level network delivers even a lone 5-flit packet
// 2 cycles later than Unloaded. That config is gated on its queueing
// alone, and must keep missing against Unloaded until the model charges
// the gap (ROADMAP item 2).
func TestMeshReplayNearUnloaded(t *testing.T) {
	specs := workload.Specs()
	mix4 := DefaultConfig(specs[workload.TPCW], specs[workload.SPECjbb],
		specs[workload.TPCH], specs[workload.SPECweb])
	mix4.Policy = sched.RoundRobin
	mix4.Scale = 16
	mix4.WarmupRefs, mix4.MeasureRefs = 20_000, 40_000
	// The ablation runner's mix: two SPECjbb and two TPC-W VMs under
	// affinity on shared-4-way banks.
	ablation := func() Config {
		cfg := DefaultConfig(specs[workload.SPECjbb], specs[workload.SPECjbb],
			specs[workload.TPCW], specs[workload.TPCW])
		cfg.Scale = 16
		cfg.WarmupRefs, cfg.MeasureRefs = 20_000, 40_000
		return cfg
	}
	oneCtrl := ablation()
	oneCtrl.Mem = memctrl.Config{Controllers: 1, Latency: DefaultMemLatency, Occupancy: 20, Nodes: []int{0}}
	fiveStages := ablation()
	fiveStages.PipeStages = 5

	type replayCase struct {
		name string
		cfg  Config
		// creditGap marks a config whose lone packets already run slower
		// through the flit-level network than Unloaded.
		creditGap bool
	}
	cases := []replayCase{
		{"mix4_s16", mix4, false},
		{"A2_one_controller", oneCtrl, false},
		{"A3_five_stages", fiveStages, true},
	}
	if !testing.Short() {
		// examples/scaling-study's 64-core point: 16 alternating
		// SPECjbb/TPC-H VMs, 1 MB of LLC per core.
		var loads []workload.Spec
		for i := 0; i < 16; i++ {
			loads = append(loads, specs[[]workload.Class{workload.SPECjbb, workload.TPCH}[i%2]])
		}
		cfg := DefaultConfig(loads...)
		cfg.Cores = 64
		cfg.LLCBytes = 64 << 20
		cfg.Scale = 16
		cfg.WarmupRefs, cfg.MeasureRefs = 80_000, 160_000
		cases = append(cases, replayCase{"scaling_64core", cfg, false})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys, msgs := recordMesh(t, c.cfg, meshReplayMsgs)
			vsModel, queueing := replayFlitLevel(t, sys, msgs)
			t.Logf("%d msgs vs Unloaded: %v", len(msgs), &vsModel)
			t.Logf("%d msgs vs lone packet: %v", len(msgs), &queueing)
			gated := &vsModel
			if c.creditGap {
				gated = &queueing
				if vsModel.within() {
					t.Errorf("replay vs Unloaded (%v) now meets the bounds: gate this config like the others", &vsModel)
				}
			}
			if !gated.within() {
				t.Errorf("replay (%v) exceeds mean +%.2f or %.0f%% >1 cycle late",
					gated, meshReplayMeanBound, 100*meshReplayOver1Bound)
			}
		})
	}
}
