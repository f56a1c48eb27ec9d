package main

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"time"

	"consim/internal/obs"
)

// consim obs is the reading side of the -manifest, -timeseries and
// -debug-addr sidecars: report renders one recorded run's phases, diff
// compares two runs and exits 1 on a regression beyond -threshold (so it
// slots into CI), top polls a live run.
//
//	consim obs report results/MANIFEST.jsonl    newest record (+ time series)
//	consim obs diff old.jsonl new.jsonl         last run of each file

// report renders the phase decomposition of one manifest record, plus
// the per-VM summary of its -timeseries rows when the sidecar resolves.
func report(args []string) error {
	fs := newFlagSet("obs report", "MANIFEST")
	label := fs.String("label", "", "report only records with this label")
	index := fs.Int("index", -1, "record to report, counting back from the end (-1 = newest)")
	tsPath := fs.String("ts", "", "time-series sidecar (default: the path recorded in the manifest)")
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
		var rows []obs.TSRow
		if ts := cmp.Or(*tsPath, m.Timeseries); ts != "" {
			if rows, err = obs.ReadTimeSeries(ts); err != nil {
				fmt.Fprintf(stderr, "obs: time series %s: %v (summary skipped)\n", ts, err)
			}
		}
		obs.WritePhaseReport(os.Stdout, m, rows)
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

// top polls a live -debug-addr endpoint and renders the consim metric
// registry with per-interval deltas.
func top(args []string) error {
	fs := newFlagSet("obs top", "")
	addr := fs.String("addr", "127.0.0.1:6060", "debug endpoint (host:port of a -debug-addr run)")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	polls := fs.Int("n", 0, "stop after this many polls (0 = until the endpoint goes away)")
	if _, err := parse(fs, args, 0, 0); err != nil {
		return err
	}
	var prev map[string]float64
	for i := 0; *polls == 0 || i < *polls; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		cur, err := obs.FetchDebugVars(*addr)
		if err != nil {
			if i == 0 {
				return err
			}
			// The watched run finished and closed its listener; that is
			// the normal way an open-ended watch ends.
			fmt.Fprintf(stderr, "obs: %s stopped answering (%v)\n", *addr, err)
			return nil
		}
		fmt.Printf("-- %s %s (poll %d)\n", *addr, time.Now().Format("15:04:05"), i+1)
		obs.WriteVarsTable(os.Stdout, cur, prev)
		prev = cur
	}
	return nil
}
