// Command calibrate runs each workload model in isolation on the private
// LLC configuration (Table II's reference setup) and prints measured vs
// paper statistics, for tuning the workload parameters in
// internal/workload/spec.go. All runs execute through one bounded pool
// (-parallel, default GOMAXPROCS); output order is fixed regardless.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"consim"
	"consim/internal/core"
	"consim/internal/obs"
	"consim/internal/workload"
)

func main() {
	scale := flag.Int("scale", 1, "divide footprints and cache capacities")
	warm := flag.Uint64("warm", 600_000, "warm-up references per core")
	meas := flag.Uint64("meas", 1_000_000, "measured references per core")
	only := flag.String("only", "", "run a single workload by name")
	gradient := flag.Bool("gradient", false, "also print the capacity gradient (miss rate and runtime at shared/shared-4/private)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), consim.ParallelFlagUsage)
	var sflags consim.SampleFlags
	sflags.Register(flag.CommandLine)
	var pflags consim.PdesFlags
	pflags.Register(flag.CommandLine)
	var ocli obs.CLI
	ocli.Register(flag.CommandLine)
	flag.Parse()

	o, ostop, err := ocli.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer ostop() //nolint:errcheck // diagnostics-only sinks

	if err := pflags.CheckExclusive(sflags.Config()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	gradientSizes := []int{16, 4, 1}

	// Build the whole job list first (one private-LLC run per workload,
	// plus the gradient runs when requested), execute it through the
	// bounded pool, then print rows in the fixed workload order.
	var specs []workload.Spec
	var cfgs []core.Config
	mkCfg := func(spec workload.Spec, gs int) core.Config {
		cfg := core.DefaultConfig(spec)
		cfg.GroupSize = gs
		cfg.Scale = *scale
		cfg.WarmupRefs = *warm
		cfg.MeasureRefs = *meas
		cfg.Sample = sflags.Config()
		pflags.Apply(&cfg) //nolint:errcheck // pair consistency checked above
		return cfg
	}
	for _, spec := range workload.Specs() {
		if *only != "" && spec.Name != *only {
			continue
		}
		specs = append(specs, spec)
		cfgs = append(cfgs, mkCfg(spec, 1))
		if *gradient {
			for _, gs := range gradientSizes {
				cfgs = append(cfgs, mkCfg(spec, gs))
			}
		}
	}
	for i := range cfgs {
		cfgs[i].Obs = o.Hooks()
	}
	results, err := consim.RunConfigs(cfgs, *parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if o != nil && o.Man != nil {
		for i := range cfgs {
			if err := o.Man.Write(core.ManifestFor(cfgs[i], results[i], *parallel)); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	perSpec := 1
	if *gradient {
		perSpec += len(gradientSizes)
	}
	fmt.Printf("%-9s %7s %7s %7s | %7s %7s %7s | %9s %9s | %8s %8s\n",
		"workload", "c2c", "clean", "dirty", "tgt", "tgtCl", "tgtDy", "blocksK", "tgtBlkK", "missRate", "missLat")
	for i, spec := range specs {
		tgt := workload.TableII()[spec.Class]
		res := results[i*perSpec]
		v := res.VMs[0]
		st := v.Stats
		fmt.Printf("%-9s %7.3f %7.3f %7.3f | %7.2f %7.2f %7.2f | %9d %9d | %8.4f %8.1f\n",
			spec.Name,
			st.C2COfLLCMisses(), 1-st.C2CDirtyShare(), st.C2CDirtyShare(),
			tgt.C2CAll, tgt.C2CClean, tgt.C2CDirty,
			v.TouchedBlocks/1000, tgt.BlocksK,
			v.MissRate(), v.AvgMissLatency())

		if *gradient {
			base := 0.0
			for j, gs := range gradientSizes {
				gv := results[i*perSpec+1+j].VMs[0]
				if gs == 16 {
					base = gv.CyclesPerTx
				}
				fmt.Printf("          gs=%-2d missRate=%.4f missLat=%6.1f relPerf=%.3f\n",
					gs, gv.MissRate(), gv.AvgMissLatency(), gv.CyclesPerTx/base)
			}
		}
	}
}
