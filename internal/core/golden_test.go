package core

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"consim/internal/sched"
	"consim/internal/vm"
	"consim/internal/workload"
)

// The golden-result fixtures pin the simulator's exact output for six
// canonical configurations (private / shared-4 / fully-shared LLC under
// both placement policies, fixed seed). Any hot-path rewrite — cache
// storage layout, event-queue discipline, reference sampling — must
// reproduce these digests bit-for-bit or consciously regenerate them
// with -update-golden and justify the behaviour change in review.
//
//	go test ./internal/core -run TestGoldenResults -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite results/golden fixtures from the current simulator")

const goldenDir = "../../results/golden"

// goldenVM is the per-VM slice of a digest. Stats covers every counter
// the paper's metrics derive from, so a drift in any of them fails.
type goldenVM struct {
	Name          string
	Stats         vm.Stats
	TouchedBlocks uint64
}

// goldenDigest is the deterministic projection of a core.Result: every
// simulated quantity, no host-side measurements (wall time is excluded
// by construction).
type goldenDigest struct {
	Label           string
	Cycles          uint64
	Switches        uint64
	Migrations      uint64
	ResidentLines   int
	ReplicatedLines int
	Occupancy       [][]int
	NetAvgWait      float64
	NetAvgHops      float64
	MemAvgWait      float64
	DirCacheHitRate float64
	VMs             []goldenVM
}

func digestOf(res Result) goldenDigest {
	d := goldenDigest{
		Label:           res.Config.Label(),
		Cycles:          uint64(res.Cycles),
		Switches:        res.Switches,
		Migrations:      res.Migrations,
		ResidentLines:   res.Snapshot.ResidentLines,
		ReplicatedLines: res.Snapshot.ReplicatedLines,
		Occupancy:       res.Snapshot.Occupancy,
		NetAvgWait:      res.NetAvgWait,
		NetAvgHops:      res.NetAvgHops,
		MemAvgWait:      res.MemAvgWait,
		DirCacheHitRate: res.DirCacheHitRate,
	}
	for _, v := range res.VMs {
		d.VMs = append(d.VMs, goldenVM{Name: v.Name, Stats: v.Stats, TouchedBlocks: v.TouchedBlocks})
	}
	return d
}

// goldenConfigs returns the six canonical fixtures: each LLC organization
// of the paper (private, shared-4, fully shared) under both placement
// policies, running the full four-workload consolidation at 1/16 scale.
func goldenConfigs() map[string]Config {
	out := make(map[string]Config)
	for _, gs := range []int{1, 4, 16} {
		for _, pol := range []sched.Policy{sched.RoundRobin, sched.Affinity} {
			cfg := fastCfg(gs, pol, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
			cfg.WarmupRefs = 20_000
			cfg.MeasureRefs = 40_000
			name := map[int]string{1: "private", 4: "shared4", 16: "fullyshared"}[gs] + "_" + pol.String()
			out[name] = cfg
		}
	}
	return out
}

func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden fixtures are covered by the full suite")
	}
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			got := digestOf(mustRun(t, cfg))
			path := filepath.Join(goldenDir, name+".json")
			if *updateGolden {
				buf, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
			}
			var want goldenDigest
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatalf("corrupt fixture %s: %v", path, err)
			}
			if !reflect.DeepEqual(got, want) {
				gotJSON, _ := json.MarshalIndent(got, "", "  ")
				t.Errorf("digest drifted from %s.\ngot:\n%s\n\nDiff the fixture to find the metric; "+
					"regenerate with -update-golden only for a deliberate, documented behaviour change.", name, gotJSON)
			}
		})
	}
}
