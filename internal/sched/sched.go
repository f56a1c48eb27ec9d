// Package sched implements the hypervisor thread-placement policies from
// §III-D of the paper: round-robin, affinity, a round-robin/affinity
// hybrid, and random. A policy maps every (vm, thread) pair to a physical
// core, given how cores are grouped around shared LLC banks; threads stay
// bound for the whole run (static binding, §IV-A).
package sched

import (
	"fmt"

	"consim/internal/sim"
)

// Policy selects a placement algorithm.
type Policy int

// The four §III-D policies.
const (
	// RoundRobin spreads each workload's threads across distinct LLC
	// groups, emphasizing load balance and maximum aggregate capacity.
	RoundRobin Policy = iota
	// Affinity packs each workload's threads into as few LLC groups as
	// possible, maximizing sharing.
	Affinity
	// RRAffinity spreads thread *pairs* round-robin, so at least two
	// threads of a workload share each LLC group.
	RRAffinity
	// Random places threads on arbitrary available cores, modeling an
	// over-committed hypervisor's long-run assignment.
	Random
	NumPolicies
)

// String returns the paper's abbreviation for the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "rr"
	case Affinity:
		return "affinity"
	case RRAffinity:
		return "aff-rr"
	case Random:
		return "random"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ByName parses a policy name as printed by String.
func ByName(name string) (Policy, error) {
	for p := Policy(0); p < NumPolicies; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown policy %q", name)
}

// All returns every policy, for sweeps.
func All() []Policy {
	return []Policy{RoundRobin, Affinity, RRAffinity, Random}
}

// AssignWithCapacity places vms VMs of threads threads each on cores.
// cores is the machine size, groupSize the number of cores sharing one
// LLC bank group (cores are grouped contiguously: group g covers
// [g*groupSize, (g+1)*groupSize)), and each core accepts up to capacity
// threads — 1 is the paper's machine, which never over-commits; more
// are time-sliced by the hypervisor, and the placement policies keep
// their §III-D semantics over the multiplied core slots. The result is
// assignment[vm][thread] = core. It fails if the demand exceeds the
// slots.
func AssignWithCapacity(p Policy, cores, groupSize, capacity, vms, threads int, seed uint64) ([][]int, error) {
	if cores <= 0 || groupSize <= 0 || cores%groupSize != 0 {
		return nil, fmt.Errorf("sched: invalid machine %d cores / group %d", cores, groupSize)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("sched: non-positive core capacity %d", capacity)
	}
	if vms < 0 || threads <= 0 {
		return nil, fmt.Errorf("sched: %d VMs with %d threads", vms, threads)
	}
	if total := vms * threads; total > cores*capacity {
		return nil, fmt.Errorf("sched: %d threads exceed %d cores x %d slots", total, cores, capacity)
	}

	groups := cores / groupSize
	free := make([][]int, groups) // free core slots per group
	for g := 0; g < groups; g++ {
		for r := 0; r < capacity; r++ {
			for c := g * groupSize; c < (g+1)*groupSize; c++ {
				free[g] = append(free[g], c)
			}
		}
	}
	take := func(g int) (int, bool) {
		if len(free[g]) == 0 {
			return 0, false
		}
		c := free[g][0]
		free[g] = free[g][1:]
		return c, true
	}
	// nextWithSpace scans groups starting at g for one with a free core.
	nextWithSpace := func(g int) int {
		for i := 0; i < groups; i++ {
			cand := (g + i) % groups
			if len(free[cand]) > 0 {
				return cand
			}
		}
		return -1
	}

	out := make([][]int, vms)
	switch p {
	case Affinity:
		// Fill group by group so each VM occupies the fewest groups.
		g := 0
		for v := range out {
			out[v] = make([]int, threads)
			for t := 0; t < threads; t++ {
				g = nextWithSpace(g)
				c, _ := take(g)
				out[v][t] = c
			}
		}
	case RoundRobin:
		// Each VM's threads go to consecutive distinct groups; VMs start
		// at staggered offsets so groups fill evenly.
		for v := range out {
			out[v] = make([]int, threads)
			for t := 0; t < threads; t++ {
				g := nextWithSpace((v + t) % groups)
				c, _ := take(g)
				out[v][t] = c
			}
		}
	case RRAffinity:
		// Pairs of threads travel together round-robin.
		pairStart := 0
		for v := range out {
			out[v] = make([]int, threads)
			for t := 0; t < threads; t += 2 {
				g := nextWithSpace(pairStart % groups)
				c, _ := take(g)
				out[v][t] = c
				if t+1 < threads {
					// Keep the pair together if the group still has
					// space, else spill to the next group.
					if c2, ok := take(g); ok {
						out[v][t+1] = c2
					} else {
						g2 := nextWithSpace(g)
						c2, _ = take(g2)
						out[v][t+1] = c2
					}
				}
				pairStart++
			}
		}
	case Random:
		// Shuffle all cores and hand them out in order.
		all := make([]int, 0, cores)
		for g := 0; g < groups; g++ {
			all = append(all, free[g]...)
		}
		r := sim.NewRNG(seed)
		for i := len(all) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			all[i], all[j] = all[j], all[i]
		}
		k := 0
		for v := range out {
			out[v] = make([]int, threads)
			for t := 0; t < threads; t++ {
				out[v][t] = all[k]
				k++
			}
		}
	default:
		return nil, fmt.Errorf("sched: unknown policy %d", p)
	}
	return out, nil
}

// GroupOf returns the LLC group of core c under the given group size.
func GroupOf(core, groupSize int) int { return core / groupSize }
