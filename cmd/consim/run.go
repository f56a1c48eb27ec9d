package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"consim/internal/core"
	"consim/internal/harness"
	"consim/internal/sched"
	"consim/internal/workload"
)

// parseRun is consim run: one configuration from flags, printed with its
// per-VM metrics. A -group list sweeps: its simulations run concurrently
// (bounded by -parallel) and the reports print in list order.
//
//	consim -workloads TPC-W,TPC-W,SPECjbb,SPECjbb -policy rr
//	consim -mix 8 -group 1,4,16 -parallel 3
func parseRun(args []string) (*job, error) {
	f := newRunFlags("run", 1, 600_000, 1_000_000)
	fs := f.fs
	mixID := fs.String("mix", "", "Table IV mix to run (1-9, A-D); overrides -workloads")
	workloads := fs.String("workloads", "TPC-H", "comma-separated workload names (one VM each)")
	group := fs.String("group", "4", "cores per LLC group (1=private, 2/4/8, 16=fully shared); a comma-separated list sweeps")
	policy := fs.String("policy", "affinity", "scheduling policy: rr, affinity, aff-rr, random")
	snapshot := fs.Bool("snapshot", false, "print the replication/occupancy snapshot")
	asJSON := fs.Bool("json", false, "emit the full result as JSON (an array when sweeping groups)")
	regions := fs.Bool("regions", false, "break each VM's LLC misses down by footprint region")
	if _, err := parse(fs, args, 0, 0); err != nil {
		return nil, err
	}

	var specs []workload.Spec
	var mix harness.Mix
	names := strings.Split(*workloads, ",")
	if *mixID != "" {
		var err error
		if mix, err = harness.MixByID(*mixID); err != nil {
			return nil, err
		}
		names = names[:0]
		for _, c := range mix.Classes {
			names = append(names, workload.Specs()[c].Name)
		}
	}
	for _, name := range names {
		spec, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	pol, err := sched.ByName(*policy)
	if err != nil {
		return nil, err
	}
	var cfgs []core.Config
	for _, part := range strings.Split(*group, ",") {
		gs, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -group entry %q", part)
		}
		cfg := f.config(specs...)
		cfg.GroupSize, cfg.Policy = gs, pol
		cfgs = append(cfgs, cfg)
	}

	return f.job(cfgs, func(r *harness.Runner, cfgs []core.Config) error {
		if *mixID != "" {
			fmt.Printf("running %s (%s)\n", mix.ID, mix.Name())
		}
		// A single configuration reports the machine before the (possibly
		// long) run starts; a sweep prints each block after all of them.
		single := len(cfgs) == 1
		if single {
			if err := printHeader(cfgs[0]); err != nil {
				return err
			}
		}
		results, err := r.RunConfigs(cfgs)
		if err != nil {
			return err
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if single {
				return enc.Encode(results[0])
			}
			return enc.Encode(results)
		}
		for i, res := range results {
			if !single {
				if i > 0 {
					fmt.Printf("\n%s\n\n", strings.Repeat("=", 72))
				}
				if err := printHeader(cfgs[i]); err != nil {
					return err
				}
			}
			printResult(res, *regions, *snapshot)
		}
		return nil
	})
}

// printHeader announces one configuration's machine and placement, and
// draws the paper's Figure 1 view: the mesh grid with each core labeled
// by the VM running on it, LLC group boundaries marked by the grouping
// of columns.
func printHeader(cfg core.Config) error {
	asg, err := cfg.Placement()
	if err != nil {
		return err
	}
	fmt.Printf("machine: %d cores, %s LLC, %s scheduling, scale 1/%d\n",
		cfg.Cores, cfg.SharingName(), cfg.Policy, cfg.Scale)
	cell := make([]string, cfg.Cores)
	for c := range cell {
		cell[c] = " .. "
	}
	for v, cores := range asg {
		fmt.Printf("  vm%d %-8s threads on cores %v\n", v, cfg.Workloads[v].Name, cores)
		for _, c := range cores {
			cell[c] = fmt.Sprintf(" v%-2d", v)
		}
	}
	w := 1
	for w*w < cfg.Cores {
		w++
	}
	fmt.Printf("\nplacement (rows = mesh; cores grouped %d per LLC):\n", cfg.GroupSize)
	for c := 0; c < cfg.Cores; c++ {
		if c%w == 0 {
			fmt.Print("  ")
		}
		fmt.Print(cell[c])
		if c%cfg.GroupSize == cfg.GroupSize-1 {
			fmt.Print("|")
		}
		if c%w == w-1 {
			fmt.Println()
		}
	}
	return nil
}

// printResult renders one run's per-VM metrics and system indicators.
func printResult(res core.Result, regions, snapshot bool) {
	fmt.Printf("\nmeasurement window: %d cycles\n", res.Cycles)
	if sa := res.Sample; sa.Windows > 0 {
		fmt.Printf("%s — metrics are estimates\n", sa.Provenance())
	}
	fmt.Printf("%-4s %-8s %12s %10s %10s %8s %8s %8s %8s\n",
		"vm", "workload", "refs", "cyc/tx", "missRate", "missLat", "c2c", "c2cDirty", "memReads")
	for _, v := range res.VMs {
		fmt.Printf("%-4d %-8s %12d %10.0f %10.4f %8.1f %8.3f %8.3f %8d\n",
			v.VM, v.Name, v.Stats.Refs, v.CyclesPerTx, v.MissRate(),
			v.AvgMissLatency(), v.Stats.C2CFraction(), v.Stats.C2CDirtyShare(), v.Stats.MemReads)
	}
	if regions {
		fmt.Printf("\nLLC misses by footprint region:\n")
		for _, v := range res.VMs {
			fmt.Printf("  vm%d %-8s", v.VM, v.Name)
			for r, n := range v.Stats.RegionMisses { // n is 0 when LLCMisses is
				fmt.Printf(" %s=%.2f", workload.RegionName(workload.Region(r)), float64(n)/float64(max(v.Stats.LLCMisses, 1)))
			}
			fmt.Println()
		}
	}

	fmt.Printf("\ninterconnect: %.2f mean hops\n", res.NetAvgHops)
	fmt.Printf("memory: %.2f mean controller-queue cycles; directory cache hit rate %.3f\n",
		res.MemAvgWait, res.DirCacheHitRate)

	if snapshot {
		s := res.Snapshot
		fmt.Printf("\nsnapshot @%d: %d resident lines, %.1f%% replicated\n",
			s.At, s.ResidentLines, 100*s.ReplicationFraction())
		for g := range s.Occupancy {
			fmt.Printf("  bank %d:", g)
			for v := range res.VMs {
				fmt.Printf(" vm%d=%5.1f%%", v, 100*s.OccupancyShare(g, v))
			}
			fmt.Println()
		}
	}
}
