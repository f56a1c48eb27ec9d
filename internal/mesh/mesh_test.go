package mesh

import (
	"testing"
	"testing/quick"
)

func TestGeometryCoords(t *testing.T) {
	g := Geometry{Width: 4, Height: 4}
	if g.Nodes() != 16 {
		t.Fatalf("Nodes = %d", g.Nodes())
	}
	x, y := g.Coord(5)
	if x != 1 || y != 1 {
		t.Errorf("Coord(5) = (%d,%d)", x, y)
	}
	if g.Node(3, 2) != 11 {
		t.Errorf("Node(3,2) = %d", g.Node(3, 2))
	}
	// Roundtrip property.
	f := func(n uint8) bool {
		id := int(n) % 16
		x, y := g.Coord(id)
		return g.Node(x, y) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometryHops(t *testing.T) {
	g := Geometry{Width: 4, Height: 4}
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 15, 6}, {5, 10, 2}, {3, 12, 6},
	}
	for _, c := range cases {
		if h := g.Hops(c.a, c.b); h != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, h, c.want)
		}
		if g.Hops(c.b, c.a) != c.want {
			t.Errorf("Hops not symmetric for (%d,%d)", c.a, c.b)
		}
	}
}

func TestDORRouteReachesDestination(t *testing.T) {
	g := Geometry{Width: 4, Height: 4}
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			cur, steps := src, 0
			for cur != dst {
				p := g.routeOrdered(cur, dst, false)
				if p == Local {
					t.Fatalf("route(%d->%d) ejected early at %d", src, dst, cur)
				}
				next := g.neighbor(cur, p)
				if next < 0 {
					t.Fatalf("route(%d->%d) left the mesh at %d via %v", src, dst, cur, p)
				}
				cur = next
				steps++
				if steps > 8 {
					t.Fatalf("route(%d->%d) did not converge", src, dst)
				}
			}
			if steps != g.Hops(src, dst) {
				t.Errorf("route(%d->%d) took %d steps, want %d", src, dst, steps, g.Hops(src, dst))
			}
			if g.routeOrdered(dst, dst, false) != Local {
				t.Errorf("route at destination %d not Local", dst)
			}
		}
	}
}

func TestDORXBeforeY(t *testing.T) {
	g := Geometry{Width: 4, Height: 4}
	// From 0 (0,0) to 15 (3,3): must go East first.
	if p := g.routeOrdered(0, 15, false); p != East {
		t.Errorf("first hop = %v, want East", p)
	}
	// From 3 (3,0) to 12 (0,3): West first.
	if p := g.routeOrdered(3, 12, false); p != West {
		t.Errorf("first hop = %v, want West", p)
	}
	// Same column: Y only.
	if p := g.routeOrdered(1, 13, false); p != South {
		t.Errorf("same-column hop = %v, want South", p)
	}
}

func TestNeighborEdges(t *testing.T) {
	g := Geometry{Width: 4, Height: 4}
	if g.neighbor(0, North) != -1 || g.neighbor(0, West) != -1 {
		t.Error("corner 0 has phantom neighbors")
	}
	if g.neighbor(15, South) != -1 || g.neighbor(15, East) != -1 {
		t.Error("corner 15 has phantom neighbors")
	}
	if g.neighbor(5, East) != 6 || g.neighbor(5, South) != 9 {
		t.Error("interior neighbors wrong")
	}
}

func TestOpposite(t *testing.T) {
	pairs := [][2]Port{{North, South}, {East, West}}
	for _, p := range pairs {
		if opposite(p[0]) != p[1] || opposite(p[1]) != p[0] {
			t.Errorf("opposite broken for %v/%v", p[0], p[1])
		}
	}
}

func TestGeometryValidate(t *testing.T) {
	if (Geometry{Width: 0, Height: 4}).Validate() == nil {
		t.Error("zero width accepted")
	}
	if (Geometry{Width: 4, Height: 4}).Validate() != nil {
		t.Error("valid geometry rejected")
	}
}

func TestDefaultNetConfig(t *testing.T) {
	cfg := DefaultNetConfig(16)
	if cfg.Geometry.Width != 4 || cfg.Geometry.Height != 4 {
		t.Errorf("16 nodes -> %dx%d", cfg.Geometry.Width, cfg.Geometry.Height)
	}
	if cfg.PipeStages != 3 {
		t.Errorf("pipeline = %d, want 3 (paper)", cfg.PipeStages)
	}
	cfg = DefaultNetConfig(8)
	if cfg.Geometry.Nodes() < 8 {
		t.Error("geometry too small for 8 nodes")
	}
}

func TestDegenerateGeometries(t *testing.T) {
	// 1x1 mesh: everything is local.
	n := NewNetwork(NetConfig{Geometry: Geometry{Width: 1, Height: 1}, VCs: 2, BufDepth: 2, PipeStages: 3})
	n.Inject(0, 0, 3)
	if !n.Drain(100) {
		t.Fatal("1x1 mesh failed to deliver a local packet")
	}
	// 1x8 line: pure X routing.
	line := NewNetwork(NetConfig{Geometry: Geometry{Width: 8, Height: 1}, VCs: 2, BufDepth: 2, PipeStages: 3})
	p := line.Inject(0, 7, 1)
	if !line.Drain(1000) {
		t.Fatal("line mesh failed to deliver")
	}
	m := NewModel(Geometry{Width: 8, Height: 1}, 3)
	if got, want := p.Delivered-p.Injected, m.Unloaded(0, 7, 1); got != want {
		t.Errorf("line latency %d != %d", got, want)
	}
	// 1xN vertical line.
	col := NewNetwork(NetConfig{Geometry: Geometry{Width: 1, Height: 5}, VCs: 2, BufDepth: 2, PipeStages: 3})
	col.Inject(0, 4, 2)
	if !col.Drain(1000) {
		t.Fatal("column mesh failed to deliver")
	}
}

func TestNonSquareDefaultConfig(t *testing.T) {
	cfg := DefaultNetConfig(32) // 6x6 = 36 >= 32
	if cfg.Geometry.Nodes() < 32 {
		t.Errorf("geometry %dx%d too small for 32 nodes", cfg.Geometry.Width, cfg.Geometry.Height)
	}
	if cfg.Validate() != nil {
		t.Error("default config for 32 nodes invalid")
	}
}
