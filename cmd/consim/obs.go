package main

import (
	"fmt"
	"os"
	"slices"

	"consim/internal/obs"
)

// consim obs is the reading side of -manifest: report renders one
// recorded run's memory system, phases and time series, diff compares
// two runs and exits 1 on a regression beyond -threshold (so it slots
// into CI).
//
//	consim obs report results/MANIFEST.jsonl    newest record (+ time series)
//	consim obs diff old.jsonl new.jsonl         last run of each file

// report renders the memory-system ledger and phase decomposition of one
// manifest record, plus the per-VM summary of its time series when the
// run was recorded with -timeseries.
func report(args []string) error {
	fs := newFlagSet("obs report", "MANIFEST")
	label := fs.String("label", "", "report only records with this label")
	index := fs.Int("index", -1, "record to report, counting back from the end (-1 = newest)")
	all := fs.Bool("all", false, "report every record")
	ops, err := parse(fs, args, 1, 1)
	if err != nil {
		return err
	}
	path := ops[0]
	ms, err := obs.ReadManifests(path)
	if err != nil {
		return err
	}
	if *label != "" {
		ms = slices.DeleteFunc(ms, func(m obs.Manifest) bool { return m.Label != *label })
	}
	picked := ms
	if !*all {
		i := len(ms) + *index
		if i < 0 || i >= len(ms) {
			return fmt.Errorf("%s: index %d out of range (%d matching records)", path, *index, len(ms))
		}
		picked = ms[i : i+1]
	}
	for i, m := range picked {
		if i > 0 {
			fmt.Println()
		}
		obs.WritePhaseReport(os.Stdout, m)
	}
	return nil
}

// diff compares two runs — the last two records of one file, or the
// last record of each of two files — and fails on regressions.
func diff(args []string) error {
	fs := newFlagSet("obs diff", "MANIFEST [MANIFEST]")
	thresh := fs.Float64("threshold", 0.05, "fractional throughput-regression threshold")
	ops, err := parse(fs, args, 1, 2)
	if err != nil {
		return err
	}
	runs, err := obs.ReadRunSummaries(ops[0])
	if err != nil {
		return err
	}
	if len(ops) == 2 {
		cur, err := obs.ReadRunSummaries(ops[1])
		if err != nil {
			return err
		}
		runs = append(runs, cur[len(cur)-1])
	}
	if len(runs) < 2 {
		return fmt.Errorf("%s: need two records to diff, have %d", ops[0], len(runs))
	}
	if n := obs.DiffSummaries(os.Stdout, runs[len(runs)-2], runs[len(runs)-1], *thresh); n > 0 {
		return fmt.Errorf("%d regression(s) beyond thresholds", n)
	}
	return nil
}
