package mesh

import (
	"testing"

	"consim/internal/sim"
)

func model4() *Model {
	return NewModel(Geometry{Width: 4, Height: 4}, 3)
}

func TestModelUnloadedFormula(t *testing.T) {
	m := model4()
	// (hops+1)*pipe + flits-1.
	if got := m.Unloaded(0, 0, 1); got != 3 {
		t.Errorf("local 1-flit = %d", got)
	}
	if got := m.Unloaded(0, 15, 1); got != 21 {
		t.Errorf("6-hop 1-flit = %d", got)
	}
	if got := m.Unloaded(0, 15, 5); got != 25 {
		t.Errorf("6-hop 5-flit = %d", got)
	}
}

func TestModelLatencyUnloadedMatches(t *testing.T) {
	m := model4()
	for dst := 0; dst < 16; dst++ {
		fresh := model4()
		got := fresh.Latency(100, 0, dst, 5) - 100
		if want := m.Unloaded(0, dst, 5); got != want {
			t.Errorf("dst %d: Latency %d != Unloaded %d", dst, got, want)
		}
	}
}

// TestModelLatencyIsHistoryFree is the model's contract: a message's
// latency is its unloaded latency whatever traffic came before. Every
// pair is checked on 4x4 and 8x8 meshes after a 300-message burst down
// one path, a load any per-link queueing estimate would charge for.
func TestModelLatencyIsHistoryFree(t *testing.T) {
	for _, g := range []Geometry{{Width: 4, Height: 4}, {Width: 8, Height: 8}} {
		m := NewModel(g, 3)
		last := g.Nodes() - 1
		for i := 0; i < 300; i++ {
			m.Latency(sim.Cycle(i), 0, last, 5)
		}
		now := sim.Cycle(300)
		for s := 0; s < g.Nodes(); s++ {
			for d := 0; d < g.Nodes(); d++ {
				for _, f := range []int{1, 5} {
					if got, want := m.Latency(now, s, d, f)-now, m.Unloaded(s, d, f); got != want {
						t.Fatalf("%dx%d %d->%d %d flits: Latency %d != Unloaded %d", g.Width, g.Height, s, d, f, got, want)
					}
				}
			}
		}
	}
}

func TestModelStats(t *testing.T) {
	m := model4()
	m.Latency(0, 0, 15, 1) // 6 hops
	m.Latency(0, 5, 6, 1)  // 1 hop
	if m.Transfers != 2 {
		t.Errorf("Transfers = %d", m.Transfers)
	}
	if m.AvgHops() != 3.5 {
		t.Errorf("AvgHops = %v", m.AvgHops())
	}
	m.ResetStats()
	if m.Transfers != 0 || m.AvgHops() != 0 {
		t.Error("ResetStats incomplete")
	}
}

func TestModelZeroFlitsClamped(t *testing.T) {
	m := model4()
	if got := m.Latency(0, 0, 1, 0); got != m.Unloaded(0, 1, 1) {
		t.Errorf("zero-flit latency = %d", got)
	}
}

func TestModelPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad pipeline depth accepted")
		}
	}()
	NewModel(Geometry{Width: 4, Height: 4}, 0)
}

func TestModelLoadLatencyCurveMonotone(t *testing.T) {
	// Increasing offered load on a fixed bisection must not decrease
	// mean latency.
	mean := func(packets int) float64 {
		m := model4()
		var sum sim.Cycle
		for i := 0; i < packets; i++ {
			sum += m.Latency(0, 0, 3, 5)
		}
		return float64(sum) / float64(packets)
	}
	if mean(50) < mean(5) {
		t.Error("latency decreased with load")
	}
}
