package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"consim/internal/cache"
	"consim/internal/memctrl"
	"consim/internal/sched"
	"consim/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	spec := workload.Specs()[workload.TPCH]
	good := DefaultConfig(spec)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mod := func(f func(*Config)) Config {
		c := DefaultConfig(spec)
		f(&c)
		return c
	}
	bad := []Config{
		mod(func(c *Config) { c.Cores = 0 }),
		mod(func(c *Config) { c.GroupSize = 3 }),
		mod(func(c *Config) { c.GroupSize = 0 }),
		mod(func(c *Config) { c.Workloads = nil }),
		mod(func(c *Config) { c.ThreadsPerVM = 0 }),
		mod(func(c *Config) { c.ThreadsPerVM = 5 }), // 5 VMs worth? no: 1 VM x 5 threads ok; use below
		mod(func(c *Config) { c.Scale = 0 }),
		mod(func(c *Config) { c.MeasureRefs = 0 }),
	}
	// ThreadsPerVM 5 with one VM is fine; force over-commit instead.
	bad[5] = DefaultConfig(spec, spec, spec, spec)
	bad[5].ThreadsPerVM = 5
	// A line's VM tag is 8 bits: VM 256 would be booked against VM 0's
	// quota and occupancy. 64 cores over-committed 8x admit 300 threads.
	manyVMs := func(n int) Config {
		specs := make([]workload.Spec, n)
		for i := range specs {
			specs[i] = spec
		}
		c := DefaultConfig(specs...)
		c.Cores, c.LLCBytes, c.Mem = 64, 64<<20, memctrl.Config{}
		c.ThreadsPerVM, c.TimesliceCycles = 1, 5_000
		return c
	}
	bad = append(bad, manyVMs(300))
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := manyVMs(cache.MaxVMs).Validate(); err != nil {
		t.Errorf("%d VMs rejected: %v", cache.MaxVMs, err)
	}
	if err := manyVMs(300).Validate(); err != nil && !strings.Contains(err.Error(), fmt.Sprint(cache.MaxVMs)) {
		t.Errorf("300 VMs: error %q does not name the %d-VM limit", err, cache.MaxVMs)
	}
}

func TestSharingName(t *testing.T) {
	spec := workload.Specs()[workload.TPCH]
	cases := map[int]string{1: "private", 4: "shared-4-way", 16: "shared"}
	for gs, want := range cases {
		c := DefaultConfig(spec)
		c.GroupSize = gs
		if got := c.SharingName(); got != want {
			t.Errorf("GroupSize %d = %q, want %q", gs, got, want)
		}
	}
}

func TestScaledCapacities(t *testing.T) {
	spec := workload.Specs()[workload.TPCH]
	c := DefaultConfig(spec)
	if c.l0Bytes() != DefaultL0Bytes || c.l1Bytes() != DefaultL1Bytes {
		t.Error("scale 1 changed private capacities")
	}
	if c.llcGroupBytes() != 4<<20 {
		t.Errorf("shared-4 group = %d bytes, want 4MB", c.llcGroupBytes())
	}
	c.GroupSize = 1
	if c.llcGroupBytes() != 1<<20 {
		t.Errorf("private bank = %d bytes, want 1MB", c.llcGroupBytes())
	}
	c.GroupSize = 16
	if c.llcGroupBytes() != 16<<20 {
		t.Errorf("fully shared = %d bytes, want 16MB", c.llcGroupBytes())
	}
	// Scaling divides but keeps valid power-of-two line geometry.
	c.Scale = 16
	if got := c.llcGroupBytes(); got != 1<<20 {
		t.Errorf("scaled shared bank = %d", got)
	}
	c.Scale = 1 << 30
	if got := c.llcGroupBytes(); got < 16*64 {
		t.Errorf("scaling floor violated: %d", got)
	}
}

func TestGroups(t *testing.T) {
	spec := workload.Specs()[workload.TPCH]
	c := DefaultConfig(spec)
	for gs, want := range map[int]int{1: 16, 2: 8, 4: 4, 8: 2, 16: 1} {
		c.GroupSize = gs
		if c.Groups() != want {
			t.Errorf("GroupSize %d -> %d groups", gs, c.Groups())
		}
	}
}

func TestNewSystemErrors(t *testing.T) {
	spec := workload.Specs()[workload.TPCH]
	c := DefaultConfig(spec)
	c.GroupSize = 5
	if _, err := NewSystem(c); err == nil {
		t.Error("invalid group size accepted")
	}
	// A bad Zipf skew is an error naming the workload, not a uniform table
	// (NaN) or a new memo entry on every build.
	for _, th := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		for _, shared := range []bool{false, true} {
			bad := spec
			if shared {
				bad.ThetaShared = th
			} else {
				bad.ThetaPriv = th
			}
			_, err := NewSystem(DefaultConfig(bad))
			if err == nil || !strings.Contains(err.Error(), "TPC-H") {
				t.Errorf("theta %v (shared %v): NewSystem error %v, want one naming TPC-H", th, shared, err)
			}
		}
	}
}

// TestNewSystemRejectsUntaggableAddressSpace: a workload whose footprint
// reaches the caches' empty-way tag — alone, or laid out after another VM
// — is an error naming the VM from NewSystem, not a panic in the first
// access to its last block. Every block of the specs below is private, so
// at four threads a generator's footprint is ⌊Blocks/4⌋·4 + 3 lines (one
// each for the minimal shared, migratory and scan regions).
func TestNewSystemRejectsUntaggableAddressSpace(t *testing.T) {
	specs := workload.Specs()
	for _, tc := range []struct {
		name   string
		blocks []int
		want   string
	}{
		{"one VM of 2^32+3 blocks", []int{1 << 32}, "VM 0 (TPC-H)"},
		// VM 0's 7 lines take a whole 1 MB-aligned region, and VM 1's
		// 2^32-1 would fill the taggable space alone.
		{"two VMs past 2^32-1 lines", []int{4, int(cache.MaxLines)}, "VM 1 (SPECjbb)"},
	} {
		c := DefaultConfig(specs[workload.TPCH], specs[workload.SPECjbb])
		c.Workloads = c.Workloads[:len(tc.blocks)]
		c.MeasureRefs, c.WarmupRefs = 100, 0
		for i, b := range tc.blocks {
			w := &c.Workloads[i]
			w.Blocks, w.PrivFrac, w.SharedFrac, w.MigFrac, w.ScanFrac = b, 1, 0, 0, 0
		}
		_, err := NewSystem(c)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewSystem error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

func TestNewSystemAssignmentMatchesPolicy(t *testing.T) {
	specs := workload.Specs()
	cfg := DefaultConfig(specs[workload.TPCW], specs[workload.TPCH], specs[workload.SPECjbb], specs[workload.TPCH])
	cfg.Scale = 64
	cfg.Policy = sched.Affinity
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	asg := sys.Assignment()
	if len(asg) != 4 {
		t.Fatalf("got %d VMs", len(asg))
	}
	used := map[int]bool{}
	for _, threads := range asg {
		for _, c := range threads {
			if used[c] {
				t.Fatal("core double-booked")
			}
			used[c] = true
		}
	}
	if len(used) != 16 {
		t.Errorf("machine not at capacity: %d cores used", len(used))
	}
}

func TestSharingNameAllSizes(t *testing.T) {
	spec := workload.Specs()[workload.TPCH]
	c := DefaultConfig(spec)
	for gs, want := range map[int]string{2: "shared-2-way", 8: "shared-8-way"} {
		c.GroupSize = gs
		if got := c.SharingName(); got != want {
			t.Errorf("GroupSize %d = %q", gs, got)
		}
	}
}

func TestCoreCapacity(t *testing.T) {
	spec := workload.Specs()[workload.TPCH]
	c := DefaultConfig(spec, spec, spec, spec)
	if c.CoreCapacity() != 1 {
		t.Errorf("at-capacity machine capacity = %d", c.CoreCapacity())
	}
	c = DefaultConfig(spec, spec, spec, spec, spec)
	c.TimesliceCycles = 1000
	if c.CoreCapacity() != 2 {
		t.Errorf("20 threads on 16 cores capacity = %d", c.CoreCapacity())
	}
}

func TestPipeStagesDefaulted(t *testing.T) {
	spec := workload.Specs()[workload.TPCH]
	cfg := DefaultConfig(spec)
	cfg.Scale = 64
	cfg.PipeStages = 0
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Config().PipeStages != DefaultPipeStages {
		t.Errorf("PipeStages defaulted to %d", sys.Config().PipeStages)
	}
}

func TestResultHelpers(t *testing.T) {
	res := Result{
		Config: func() Config {
			c := DefaultConfig(workload.Specs()[workload.TPCH])
			c.GroupSize = 4
			return c
		}(),
		Cycles: 100,
		VMs: []VMResult{
			{VM: 0, Class: workload.TPCH, Name: "TPC-H", CyclesPerTx: 10},
			{VM: 1, Class: workload.TPCW, Name: "TPC-W", CyclesPerTx: 20},
			{VM: 2, Class: workload.TPCH, Name: "TPC-H", CyclesPerTx: 30},
		},
	}
	h := res.ByClass(workload.TPCH)
	if len(h) != 2 || h[0].VM != 0 || h[1].VM != 2 {
		t.Errorf("ByClass = %+v", h)
	}
	if len(res.ByClass(workload.SPECweb)) != 0 {
		t.Error("phantom class results")
	}
	s := res.String()
	if s == "" {
		t.Error("empty String()")
	}
}

func TestSnapshotHelpers(t *testing.T) {
	s := Snapshot{
		ResidentLines:   100,
		ReplicatedLines: 25,
		Occupancy:       [][]int{{30, 70}, {0, 0}},
		GroupLines:      128,
	}
	if s.ReplicationFraction() != 0.25 {
		t.Errorf("ReplicationFraction = %v", s.ReplicationFraction())
	}
	if got := s.OccupancyShare(0, 1); got != 0.7 {
		t.Errorf("OccupancyShare = %v", got)
	}
	if s.OccupancyShare(1, 0) != 0 {
		t.Error("empty bank share not zero")
	}
	empty := Snapshot{}
	if empty.ReplicationFraction() != 0 {
		t.Error("empty snapshot not zero-safe")
	}
}

// TestValidateUncoreGeometry: configurations that used to reach a hang in
// the mesh route walk or an index panic (memory controllers attached
// outside the derived mesh, a directory cache whose set count is not a
// power of two) are construction errors, and every machine shape the
// figures, ablations, examples and scaling tests build still validates.
func TestValidateUncoreGeometry(t *testing.T) {
	spec := workload.Specs()[workload.TPCH]
	mod := func(f func(*Config)) Config {
		c := DefaultConfig(spec)
		f(&c)
		return c
	}
	bad := map[string]Config{
		// 3x3 mesh, default controllers at nodes 12 and 15: Latency spun forever.
		"7 cores, 4x4 controller layout": mod(func(c *Config) { c.Cores, c.GroupSize = 7, 7 }),
		// 4x3 mesh: route-table index out of range.
		"12 cores, 4x4 controller layout": mod(func(c *Config) { c.Cores, c.GroupSize = 12, 4 }),
		"negative attach node":            mod(func(c *Config) { c.Mem.Nodes = []int{0, 3, -1, 15} }),
		"attach nodes short of controllers": mod(func(c *Config) {
			c.Mem.Nodes = c.Mem.Nodes[:3]
		}),
		// 125 sets: cache.New panicked.
		"1000 dircache entries":        mod(func(c *Config) { c.DirCacheEntries = 1000 }),
		"dircache entries under a set": mod(func(c *Config) { c.DirCacheEntries = 4 }),
		"negative dircache entries":    mod(func(c *Config) { c.DirCacheEntries = -8 }),
		// mesh.NewModel panicked: "non-positive pipeline depth".
		"negative router pipeline depth": mod(func(c *Config) { c.PipeStages = -1 }),
		// llcGroupBytes floored it to a 16-line LLC per group.
		"negative LLC capacity": mod(func(c *Config) { c.LLCBytes = -1 }),
	}
	for name, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
		if _, err := NewSystem(c); err == nil {
			t.Errorf("%s: NewSystem accepted it", name)
		}
	}

	good := map[string]Config{
		"zero Mem on 7 cores":  mod(func(c *Config) { c.Cores, c.GroupSize, c.Mem = 7, 7, memctrl.Config{} }),
		"zero Mem on 12 cores": mod(func(c *Config) { c.Cores, c.GroupSize, c.Mem = 12, 4, memctrl.Config{} }),
		"zero dircache":        mod(func(c *Config) { c.DirCacheEntries = 0 }),
		"8-entry dircache":     mod(func(c *Config) { c.DirCacheEntries = 8 }),
		"5-stage routers":      mod(func(c *Config) { c.PipeStages = 5 }),
	}
	for _, gs := range []int{1, 2, 4, 8, 16} { // every figure's LLC organisation
		good[fmt.Sprintf("16 cores, groups of %d", gs)] = mod(func(c *Config) { c.GroupSize = gs })
	}
	for _, cores := range []int{32, 64} { // scaling study and larger-machine tests
		good[fmt.Sprintf("%d cores", cores)] = mod(func(c *Config) { c.Cores, c.LLCBytes = cores, cores<<20 })
	}
	for n, nodes := range map[int][]int{1: {0}, 2: {0, 15}, 8: {0, 1, 2, 3, 12, 13, 14, 15}} { // ablation A3
		good[fmt.Sprintf("%d controllers", n)] = mod(func(c *Config) {
			c.Mem = memctrl.Config{Controllers: n, Latency: DefaultMemLatency, Occupancy: 20, Nodes: nodes}
		})
	}
	for name, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
