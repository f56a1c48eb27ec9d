// Package mesh implements the on-chip interconnect from the paper's
// Table III: a 2-D packet-switched mesh with virtual-channel flow
// control, dimension-order (X-then-Y) routing and a 3-stage router
// pipeline with speculative virtual-channel and switch allocation.
//
// Two fidelities are provided:
//
//   - Network: a flit-level, cycle-driven model with per-VC buffers,
//     credit-based flow control and round-robin switch allocation. Used
//     directly by the NoC example and benchmarks, and to validate the
//     fast model.
//   - Model: a table-driven unloaded-latency model, used inside the big
//     consolidation sweeps where the 16 blocking cores inject far below
//     saturation. Its latency matches Network's unloaded latency exactly
//     (asserted by tests), and replaying the sweeps' traffic into
//     Network stays within a cycle of it on average.
package mesh

import "fmt"

// Geometry describes a W x H mesh.
type Geometry struct {
	Width  int
	Height int
}

// Nodes returns the number of routers.
func (g Geometry) Nodes() int { return g.Width * g.Height }

// Coord returns the (x, y) position of node n.
func (g Geometry) Coord(n int) (x, y int) { return n % g.Width, n / g.Width }

// Node returns the node ID at (x, y).
func (g Geometry) Node(x, y int) int { return y*g.Width + x }

// Hops returns the dimension-order hop count between two nodes.
func (g Geometry) Hops(src, dst int) int {
	sx, sy := g.Coord(src)
	dx, dy := g.Coord(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.Width <= 0 || g.Height <= 0 {
		return fmt.Errorf("mesh: non-positive geometry %dx%d", g.Width, g.Height)
	}
	return nil
}

// Port identifies a router port.
type Port int

// Router ports: four cardinal links plus the local inject/eject port.
const (
	Local Port = iota
	North
	South
	East
	West
	numPorts
)

// String returns the port name.
func (p Port) String() string {
	switch p {
	case Local:
		return "local"
	case North:
		return "north"
	case South:
		return "south"
	case East:
		return "east"
	case West:
		return "west"
	}
	return fmt.Sprintf("Port(%d)", int(p))
}

// routeOrdered computes the output port at node cur for destination dst,
// correcting X then Y (yFirst=false, DOR) or Y then X (yFirst=true), then
// ejecting. Both orders are individually deadlock-free on a mesh; O1TURN
// mixes them across disjoint virtual-channel classes.
func (g Geometry) routeOrdered(cur, dst int, yFirst bool) Port {
	cx, cy := g.Coord(cur)
	dx, dy := g.Coord(dst)
	if yFirst {
		switch {
		case dy > cy:
			return South
		case dy < cy:
			return North
		case dx > cx:
			return East
		case dx < cx:
			return West
		default:
			return Local
		}
	}
	switch {
	case dx > cx:
		return East
	case dx < cx:
		return West
	case dy > cy:
		return South
	case dy < cy:
		return North
	default:
		return Local
	}
}

// neighbor returns the node reached by leaving cur through p, or -1 if
// the port exits the mesh.
func (g Geometry) neighbor(cur int, p Port) int {
	x, y := g.Coord(cur)
	switch p {
	case North:
		y--
	case South:
		y++
	case East:
		x++
	case West:
		x--
	default:
		return -1
	}
	if x < 0 || x >= g.Width || y < 0 || y >= g.Height {
		return -1
	}
	return g.Node(x, y)
}

// opposite returns the input port on the downstream router for traffic
// leaving through p.
func opposite(p Port) Port {
	switch p {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return Local
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
