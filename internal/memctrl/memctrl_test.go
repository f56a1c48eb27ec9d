package memctrl

import (
	"testing"

	"consim/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if DefaultConfig().Validate() != nil {
		t.Fatal("default config invalid")
	}
	bad := []Config{
		{Controllers: 0, Latency: 150, Occupancy: 20},
		{Controllers: 2, Latency: 150, Occupancy: 20, Nodes: []int{0}},
		{Controllers: 1, Latency: 0, Occupancy: 20, Nodes: []int{0}},
		{Controllers: 1, Latency: 150, Occupancy: 0, Nodes: []int{0}},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestControllerStriping(t *testing.T) {
	m := New(DefaultConfig())
	// Consecutive lines alternate controllers.
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		seen[m.Controller(sim.Addr(i*64))] = true
	}
	if len(seen) != 4 {
		t.Errorf("striping used %d controllers, want 4", len(seen))
	}
	// Same line, same controller.
	if m.Controller(0x40) != m.Controller(0x7f) {
		t.Error("one line split across controllers")
	}
	// Node mapping is within the mesh corners.
	for i := 0; i < 16; i++ {
		n := m.Node(sim.Addr(i * 64))
		if n != 0 && n != 3 && n != 12 && n != 15 {
			t.Errorf("controller node %d not at a corner", n)
		}
	}
}

func TestReadLatency(t *testing.T) {
	m := New(DefaultConfig())
	done := m.Read(100, 0)
	if done != 100+150 {
		t.Errorf("unloaded read done at %d", done)
	}
}

func TestReadQueueing(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Read(0, 0)     // controller 0, occupies [0,20)
	b := m.Read(5, 0x100) // same controller (block 4 % 4 == 0), arrives mid-occupancy
	if a != 150 {
		t.Errorf("first read done at %d", a)
	}
	if b != 20+150 {
		t.Errorf("queued read done at %d, want 170", b)
	}
	if m.AvgWait() != 7.5 { // (0 + 15)/2
		t.Errorf("AvgWait = %v", m.AvgWait())
	}
}

func TestDifferentControllersNoQueueing(t *testing.T) {
	m := New(DefaultConfig())
	m.Read(0, 0)
	done := m.Read(0, 0x40) // next block, controller 1
	if done != 150 {
		t.Errorf("independent controller queued: %d", done)
	}
}

func TestWritebackOccupiesController(t *testing.T) {
	m := New(DefaultConfig())
	m.Writeback(0, 0)
	done := m.Read(0, 0)
	if done != 20+150 {
		t.Errorf("read after writeback done at %d", done)
	}
	if m.Writebacks != 1 || m.Reads != 1 {
		t.Errorf("counters = %d/%d", m.Reads, m.Writebacks)
	}
}

func TestResetStats(t *testing.T) {
	m := New(DefaultConfig())
	m.Read(0, 0)
	m.Writeback(0, 0)
	m.ResetStats()
	if m.Reads != 0 || m.Writebacks != 0 || m.AvgWait() != 0 {
		t.Error("ResetStats incomplete")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	New(Config{})
}
