// Command consim runs one consolidation simulation from flags and prints
// per-VM metrics. -group accepts a comma-separated list of group sizes;
// with more than one, the sweep's simulations run concurrently (bounded
// by -parallel) and the reports print in list order. -pdes runs one
// simulation's active cores in parallel domains with windowed
// cross-domain coherence: metrics become equivalence-gated estimates
// (deterministic per seed), and no recorded run is faster than the
// sequential engine (EXPERIMENTS.md, "Split-transaction parallel
// engine").
//
// Examples:
//
//	consim -mix 5 -group 4 -policy affinity
//	consim -workloads TPC-H -group 1 -scale 4
//	consim -workloads TPC-W,TPC-W,SPECjbb,SPECjbb -policy rr
//	consim -mix 8 -group 1,4,16 -parallel 3
//	consim -mix 5 -pdes 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"consim"
	"consim/internal/core"
	"consim/internal/obs"
	"consim/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "consim:", err)
		os.Exit(1)
	}
}

// printPlacement draws the paper's Figure 1 view: the mesh grid with
// each core labeled by the VM running on it, and LLC group boundaries
// marked by the grouping of columns.
func printPlacement(cfg consim.Config, asg [][]int) {
	w := 1
	for w*w < cfg.Cores {
		w++
	}
	owner := make([]int, cfg.Cores)
	for c := range owner {
		owner[c] = -1
	}
	for v, cores := range asg {
		for _, c := range cores {
			owner[c] = v
		}
	}
	fmt.Printf("\nplacement (rows = mesh; cores grouped %d per LLC):\n", cfg.GroupSize)
	for c := 0; c < cfg.Cores; c++ {
		if c%w == 0 {
			fmt.Print("  ")
		}
		if owner[c] < 0 {
			fmt.Print(" .. ")
		} else {
			fmt.Printf(" v%-2d", owner[c])
		}
		if c%cfg.GroupSize == cfg.GroupSize-1 {
			fmt.Print("|")
		}
		if c%w == w-1 {
			fmt.Println()
		}
	}
}

// printHeader announces one configuration's machine and placement.
func printHeader(cfg consim.Config, specs []consim.WorkloadSpec, asg [][]int) {
	fmt.Printf("machine: %d cores, %s LLC, %s scheduling, scale 1/%d\n",
		cfg.Cores, cfg.SharingName(), cfg.Policy, cfg.Scale)
	for v, cores := range asg {
		fmt.Printf("  vm%d %-8s threads on cores %v\n", v, specs[v].Name, cores)
	}
	printPlacement(cfg, asg)
}

// printResult renders one run's per-VM metrics and system indicators.
func printResult(res consim.Result, regions, snapshot bool) {
	fmt.Printf("\nmeasurement window: %d cycles\n", res.Cycles)
	if sa := res.Sample; sa.Windows > 0 {
		fmt.Printf("%s — metrics are estimates\n", sa.Provenance())
	}
	if ps := res.Pdes; ps.Workers > 1 {
		replay := ""
		if ps.ReplayWorkers > 1 {
			replay = fmt.Sprintf(", sharded replay x%d", ps.ReplayWorkers)
			if ps.Pipelined {
				replay += " pipelined"
			}
		}
		fmt.Printf("parallel: %d domains (of %d workers), %d windows of %d cycles, %d replayed ops%s — metrics are estimates\n",
			ps.Domains, ps.Workers, ps.Windows, ps.Window, ps.Ops, replay)
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
			total := v.Stats.LLCMisses
			for r, n := range v.Stats.RegionMisses {
				frac := 0.0
				if total > 0 {
					frac = float64(n) / float64(total)
				}
				fmt.Printf(" %s=%.2f", workload.RegionName(workload.Region(r)), frac)
			}
			fmt.Println()
		}
	}

	fmt.Printf("\ninterconnect: %.2f mean hops, %.2f mean link-wait cycles\n", res.NetAvgHops, res.NetAvgWait)
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

// parseGroups parses the -group flag's comma-separated size list.
func parseGroups(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -group entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func run() (err error) {
	var (
		mixID     = flag.String("mix", "", "Table IV mix to run (1-9, A-D); overrides -workloads")
		workloads = flag.String("workloads", "TPC-H", "comma-separated workload names (one VM each)")
		group     = flag.String("group", "4", "cores per LLC group (1=private, 2/4/8, 16=fully shared); a comma-separated list sweeps")
		policy    = flag.String("policy", "affinity", "scheduling policy: rr, affinity, aff-rr, random")
		scale     = flag.Int("scale", 1, "divide cache capacities and footprints (1 = paper scale)")
		seed      = flag.Uint64("seed", 1, "random seed")
		warm      = flag.Uint64("warm", 600_000, "warm-up references per core")
		meas      = flag.Uint64("meas", 1_000_000, "measured references per core")
		snapshot  = flag.Bool("snapshot", false, "print the replication/occupancy snapshot")
		asJSON    = flag.Bool("json", false, "emit the full result as JSON (an array when sweeping groups)")
		regions   = flag.Bool("regions", false, "break each VM's LLC misses down by footprint region")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), consim.ParallelFlagUsage)
	)
	var sflags consim.SampleFlags
	sflags.Register(flag.CommandLine)
	var pflags consim.PdesFlags
	pflags.Register(flag.CommandLine)
	var ocli obs.CLI
	ocli.Register(flag.CommandLine)
	flag.Parse()

	o, ostop, oerr := ocli.Start(os.Stderr)
	if oerr != nil {
		return oerr
	}
	defer func() {
		if cerr := ostop(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	var specs []consim.WorkloadSpec
	if *mixID != "" {
		mix, err := consim.MixByID(*mixID)
		if err != nil {
			return err
		}
		all := consim.WorkloadSpecs()
		for _, c := range mix.Classes {
			specs = append(specs, all[c])
		}
		fmt.Printf("running %s (%s)\n", mix.ID, mix.Name())
	} else {
		for _, name := range strings.Split(*workloads, ",") {
			spec, err := consim.WorkloadByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			specs = append(specs, spec)
		}
	}
	pol, err := consim.PolicyByName(*policy)
	if err != nil {
		return err
	}
	groups, err := parseGroups(*group)
	if err != nil {
		return err
	}

	cfgs := make([]consim.Config, len(groups))
	for i, gs := range groups {
		cfg := consim.DefaultConfig(specs...)
		cfg.GroupSize = gs
		cfg.Policy = pol
		cfg.Scale = *scale
		cfg.Seed = *seed
		cfg.WarmupRefs = *warm
		cfg.MeasureRefs = *meas
		cfg.Sample = sflags.Config()
		if err := pflags.Apply(&cfg); err != nil {
			return err
		}
		cfgs[i] = cfg
	}

	if len(groups) == 1 {
		// Single configuration: report the machine before the (possibly
		// long) run starts.
		cfgs[0].Obs = o.Hooks()
		sys, err := consim.NewSystem(cfgs[0])
		if err != nil {
			return err
		}
		printHeader(cfgs[0], specs, sys.Assignment())
		res, err := sys.Run()
		if err != nil {
			return err
		}
		if o != nil && o.Man != nil {
			if err := o.Man.Write(core.ManifestFor(cfgs[0], res, 1)); err != nil {
				return err
			}
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(res)
		}
		printResult(res, *regions, *snapshot)
		return nil
	}

	// Group sweep: simulate every size concurrently, print in order.
	for i := range cfgs {
		cfgs[i].Obs = o.Hooks()
	}
	results, err := consim.RunConfigs(cfgs, *parallel)
	if err != nil {
		return err
	}
	if o != nil && o.Man != nil {
		for i := range cfgs {
			if err := o.Man.Write(core.ManifestFor(cfgs[i], results[i], *parallel)); err != nil {
				return err
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	for i, res := range results {
		if i > 0 {
			fmt.Printf("\n%s\n\n", strings.Repeat("=", 72))
		}
		sys, err := consim.NewSystem(cfgs[i])
		if err != nil {
			return err
		}
		printHeader(cfgs[i], specs, sys.Assignment())
		printResult(res, *regions, *snapshot)
	}
	return nil
}
