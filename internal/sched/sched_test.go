package sched

import (
	"testing"
	"testing/quick"
)

// assign places vms 4-thread VMs on the paper's 16-core machine, one
// thread per core.
func assign(p Policy, groupSize, vms int, seed uint64) ([][]int, error) {
	return AssignWithCapacity(p, 16, groupSize, 1, vms, 4, seed)
}

// validAssignment checks the universal placement invariants: every VM's
// four threads got a core, no core is double-booked, all cores are in
// range.
func validAssignment(t *testing.T, asg [][]int, cores, vms int) {
	t.Helper()
	if len(asg) != vms {
		t.Fatalf("%d VMs placed, want %d", len(asg), vms)
	}
	used := map[int]bool{}
	for v, threads := range asg {
		if len(threads) != 4 {
			t.Fatalf("vm %d got %d cores, want 4", v, len(threads))
		}
		for _, c := range threads {
			if c < 0 || c >= cores {
				t.Fatalf("core %d out of range", c)
			}
			if used[c] {
				t.Fatalf("core %d assigned twice", c)
			}
			used[c] = true
		}
	}
}

func groupsOf(threads []int, groupSize int) map[int]int {
	g := map[int]int{}
	for _, c := range threads {
		g[GroupOf(c, groupSize)]++
	}
	return g
}

func TestAllPoliciesValid(t *testing.T) {
	for _, p := range All() {
		for _, gs := range []int{1, 2, 4, 8, 16} {
			asg, err := assign(p, gs, 4, 1)
			if err != nil {
				t.Fatalf("%v/gs%d: %v", p, gs, err)
			}
			validAssignment(t, asg, 16, 4)
		}
	}
}

func TestAffinityPacksGroups(t *testing.T) {
	asg, err := assign(Affinity, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range asg {
		if g := groupsOf(asg[v], 4); len(g) != 1 {
			t.Errorf("vm %d spans %d groups under affinity, want 1", v, len(g))
		}
	}
}

func TestAffinityIsolationUsesOneGroup(t *testing.T) {
	asg, err := assign(Affinity, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g := groupsOf(asg[0], 4); len(g) != 1 {
		t.Errorf("isolated affinity spans %d groups", len(g))
	}
}

func TestRoundRobinSpreadsThreads(t *testing.T) {
	asg, err := assign(RoundRobin, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range asg {
		if g := groupsOf(asg[v], 4); len(g) != 4 {
			t.Errorf("vm %d spans %d groups under round robin, want 4", v, len(g))
		}
	}
}

func TestRoundRobinIsolationSpreads(t *testing.T) {
	asg, err := assign(RoundRobin, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g := groupsOf(asg[0], 4); len(g) != 4 {
		t.Errorf("isolated RR spans %d groups, want 4", len(g))
	}
}

func TestRRAffinityPairsShareGroups(t *testing.T) {
	asg, err := assign(RRAffinity, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range asg {
		g := groupsOf(asg[v], 4)
		// Four threads in pairs: at most 2 groups, every group holding
		// at least 2 of this VM's threads.
		if len(g) > 2 {
			t.Errorf("vm %d spans %d groups under aff-rr", v, len(g))
		}
		for grp, n := range g {
			if n < 2 {
				t.Errorf("vm %d has a lone thread in group %d", v, grp)
			}
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a, _ := assign(Random, 4, 4, 5)
	b, _ := assign(Random, 4, 4, 5)
	c, _ := assign(Random, 4, 4, 6)
	same := func(x, y [][]int) bool {
		for i := range x {
			for j := range x[i] {
				if x[i][j] != y[i][j] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed gave different random placements")
	}
	if same(a, c) {
		t.Error("different seeds gave identical placements")
	}
}

func TestAssignErrors(t *testing.T) {
	if _, err := assign(RoundRobin, 4, 5, 1); err == nil {
		t.Error("over-commit accepted")
	}
	if _, err := assign(RoundRobin, 3, 4, 1); err == nil {
		t.Error("non-dividing group size accepted")
	}
	if _, err := AssignWithCapacity(RoundRobin, 0, 1, 1, 4, 4, 1); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := AssignWithCapacity(RoundRobin, 16, 4, 1, 1, 0, 1); err == nil {
		t.Error("zero-thread VM accepted")
	}
	if _, err := assign(Policy(99), 4, 4, 1); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range All() {
		got, err := ByName(p.String())
		if err != nil || got != p {
			t.Errorf("ByName(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("bogus policy name accepted")
	}
}

func TestGroupOf(t *testing.T) {
	if GroupOf(7, 4) != 1 || GroupOf(0, 1) != 0 || GroupOf(15, 16) != 0 {
		t.Error("GroupOf broken")
	}
}

func TestAssignPropertyAllPoliciesAllShapes(t *testing.T) {
	f := func(rawPolicy, rawGS, rawVMs uint8, seed uint64) bool {
		p := All()[int(rawPolicy)%len(All())]
		gsOpts := []int{1, 2, 4, 8, 16}
		gs := gsOpts[int(rawGS)%len(gsOpts)]
		nVMs := int(rawVMs)%4 + 1
		asg, err := assign(p, gs, nVMs, seed)
		if err != nil {
			return false
		}
		used := map[int]bool{}
		for _, threads := range asg {
			for _, c := range threads {
				if c < 0 || c >= 16 || used[c] {
					return false
				}
				used[c] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
