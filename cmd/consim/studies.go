package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"consim/internal/core"
	"consim/internal/harness"
	"consim/internal/workload"
)

// pickIDs resolves an -exp list against the known IDs, refusing an
// unknown one before anything simulates; empty selects them all.
func pickIDs(exp, kind string, known []string) ([]string, error) {
	if exp == "" {
		return known, nil
	}
	ids := strings.Split(exp, ",")
	for i, id := range ids {
		if ids[i] = strings.TrimSpace(id); !slices.Contains(known, ids[i]) {
			return nil, fmt.Errorf("unknown %s %q (want %s)", kind, ids[i], strings.Join(known, ","))
		}
	}
	return ids, nil
}

// parseTables is consim tables: Table II and Figures 2-13 of the paper's
// evaluation, the harness behind EXPERIMENTS.md. All artifacts share the
// runner's one deduplicated work queue: shared baselines simulate once,
// and -parallel bounds the simulations in flight across the batch.
func parseTables(args []string) (*job, error) {
	f := newRunFlags("tables", 1, 600_000, 1_000_000)
	exp := f.fs.String("exp", "", "comma-separated artifact IDs (default: all of T2,F2..F13)")
	format := f.fs.String("format", "text", "output format: text, md, csv, bars")
	if _, err := parse(f.fs, args, 0, 0); err != nil {
		return nil, err
	}
	ids, err := pickIDs(*exp, "figure", harness.FigureIDs())
	if err != nil {
		return nil, err
	}
	return f.job(nil, func(r *harness.Runner, _ []core.Config) error {
		start := time.Now()
		tables, err := r.RunFigures(ids...)
		if err != nil {
			return err
		}
		for _, t := range tables {
			switch *format {
			case "md":
				fmt.Println(t.Markdown())
			case "csv":
				fmt.Printf("# %s — %s\n%s\n", t.ID, t.Title, t.CSV())
			case "bars":
				fmt.Println(t.Bars(50))
			default:
				fmt.Println(t.Text())
			}
		}
		fmt.Fprintf(stderr, "[%d artifacts from %d simulations in %v]\n",
			len(tables), r.Sims(), time.Since(start).Round(time.Millisecond))
		return nil
	})
}

// parseAblate is consim ablate: the design-choice ablation studies, at
// 1/4 scale by default.
func parseAblate(args []string) (*job, error) {
	f := newRunFlags("ablate", 4, 300_000, 500_000)
	exp := f.fs.String("exp", "", "comma-separated ablation IDs (default: all of A1..A6)")
	if _, err := parse(f.fs, args, 0, 0); err != nil {
		return nil, err
	}
	ids, err := pickIDs(*exp, "ablation", harness.AblationIDs())
	if err != nil {
		return nil, err
	}
	return f.job(nil, func(r *harness.Runner, _ []core.Config) error {
		for _, id := range ids {
			start := time.Now()
			t, err := r.RunAblation(id)
			if err != nil {
				return err
			}
			fmt.Println(t.Text())
			fmt.Fprintf(stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
		}
		return nil
	})
}

// parseCalibrate is consim calibrate: each workload model alone on the
// private LLC configuration (Table II's reference setup), measured
// against the paper's statistics, for tuning internal/workload/spec.go.
func parseCalibrate(args []string) (*job, error) {
	f := newRunFlags("calibrate", 1, 600_000, 1_000_000)
	only := f.fs.String("only", "", "run a single workload by name")
	gradient := f.fs.Bool("gradient", false, "also print the capacity gradient (miss rate and runtime at shared/shared-4/private)")
	if _, err := parse(f.fs, args, 0, 0); err != nil {
		return nil, err
	}
	// One private-LLC run per workload, then its gradient runs.
	groups := []int{1}
	if *gradient {
		groups = append(groups, 16, 4, 1)
	}
	var specs []workload.Spec
	var cfgs []core.Config
	for _, spec := range workload.Specs() {
		if *only != "" && spec.Name != *only {
			continue
		}
		specs = append(specs, spec)
		for _, gs := range groups {
			cfg := f.config(spec)
			cfg.GroupSize = gs
			cfgs = append(cfgs, cfg)
		}
	}
	return f.job(cfgs, func(r *harness.Runner, cfgs []core.Config) error {
		results, err := r.RunConfigs(cfgs)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s %7s %7s %7s | %7s %7s %7s | %9s %9s | %8s %8s\n",
			"workload", "c2c", "clean", "dirty", "tgt", "tgtCl", "tgtDy", "blocksK", "tgtBlkK", "missRate", "missLat")
		for i, spec := range specs {
			tgt := workload.TableII()[spec.Class]
			v := results[i*len(groups)].VMs[0]
			st := v.Stats
			fmt.Printf("%-9s %7.3f %7.3f %7.3f | %7.2f %7.2f %7.2f | %9d %9d | %8.4f %8.1f\n",
				spec.Name,
				st.C2COfLLCMisses(), 1-st.C2CDirtyShare(), st.C2CDirtyShare(),
				tgt.C2CAll, tgt.C2CClean, tgt.C2CDirty,
				v.TouchedBlocks/1000, tgt.BlocksK,
				v.MissRate(), v.AvgMissLatency())
			base := 0.0
			for j, gs := range groups[1:] {
				gv := results[i*len(groups)+1+j].VMs[0]
				if gs == 16 {
					base = gv.CyclesPerTx
				}
				fmt.Printf("          gs=%-2d missRate=%.4f missLat=%6.1f relPerf=%.3f\n",
					gs, gv.MissRate(), gv.AvgMissLatency(), gv.CyclesPerTx/base)
			}
		}
		return nil
	})
}
