package main

import (
	"fmt"
	"os"
	"slices"

	"consim/internal/obs"
)

// consim obs report is the reading side of -manifest: it renders a
// recorded run's memory system, phases and time series.
//
//	consim obs report results/MANIFEST.jsonl    newest record (+ time series)

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
