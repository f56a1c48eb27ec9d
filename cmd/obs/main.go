// Command obs analyses recorded runs and watches live ones — the
// reading side of the observability sidecars the simulator CLIs write
// (-manifest, -timeseries, -debug-addr):
//
//	obs report results/MANIFEST.jsonl            phase/Amdahl report of the
//	                                             last run (+ time series)
//	obs report -label shared/affinity ...        ... of the last matching run
//	obs diff results/MANIFEST.jsonl              last two runs in one file
//	obs diff old.jsonl new.jsonl                 last run of each file
//	obs diff -threshold 0.10 m.jsonl             ... flagging throughput down over 10%
//	obs top -addr 127.0.0.1:6060                 poll a live -debug-addr
//
// diff exits 1 when any metric regresses beyond its threshold, so it
// slots into CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"consim/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "report":
		err = report(os.Args[2:])
	case "diff":
		err = diff(os.Args[2:])
	case "top":
		err = top(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "obs:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: obs {report|diff|top} [flags] [paths]")
	os.Exit(2)
}

// report renders the phase decomposition of one manifest record, plus
// the per-VM summary of its -timeseries rows when the sidecar resolves.
func report(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	label := fs.String("label", "", "report the newest record with this label (default: newest record)")
	index := fs.Int("index", -1, "record to report, counting back from the end (-1 = newest)")
	tsPath := fs.String("ts", "", "time-series sidecar (default: the path recorded in the manifest)")
	all := fs.Bool("all", false, "report every record in the file")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("report: want one manifest path, got %d args", fs.NArg())
	}
	ms, err := obs.ReadManifests(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(ms) == 0 {
		return fmt.Errorf("%s: no manifest records", fs.Arg(0))
	}
	var picked []obs.Manifest
	switch {
	case *all:
		picked = ms
	case *label != "":
		for i := len(ms) - 1; i >= 0; i-- {
			if ms[i].Label == *label {
				picked = ms[i : i+1]
				break
			}
		}
		if picked == nil {
			return fmt.Errorf("%s: no record labelled %q", fs.Arg(0), *label)
		}
	default:
		i := len(ms) + *index
		if i < 0 || i >= len(ms) {
			return fmt.Errorf("%s: index %d out of range (%d records)", fs.Arg(0), *index, len(ms))
		}
		picked = ms[i : i+1]
	}
	for i, m := range picked {
		if i > 0 {
			fmt.Println()
		}
		var rows []obs.TSRow
		if path := seriesPath(*tsPath, m); path != "" {
			rows, err = obs.ReadTimeSeries(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "obs: time series %s: %v (summary skipped)\n", path, err)
			}
		}
		obs.WritePhaseReport(os.Stdout, m, rows)
	}
	return nil
}

// seriesPath resolves which sidecar to read for m: the -ts override, or
// the path the run recorded.
func seriesPath(override string, m obs.Manifest) string {
	if override != "" {
		return override
	}
	return m.Timeseries
}

// diff compares two runs — the last two records of one file, or the
// last record of each of two files — and exits non-zero on regressions.
func diff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	thresh := fs.Float64("threshold", 0.05, "fractional throughput-regression threshold")
	fs.Parse(args)
	var base, cur obs.RunSummary
	switch fs.NArg() {
	case 1:
		runs, err := obs.ReadRunSummaries(fs.Arg(0))
		if err != nil {
			return err
		}
		if len(runs) < 2 {
			return fmt.Errorf("%s: need two records to diff, have %d", fs.Arg(0), len(runs))
		}
		base, cur = runs[len(runs)-2], runs[len(runs)-1]
	case 2:
		b, err := obs.ReadRunSummaries(fs.Arg(0))
		if err != nil {
			return err
		}
		c, err := obs.ReadRunSummaries(fs.Arg(1))
		if err != nil {
			return err
		}
		base, cur = b[len(b)-1], c[len(c)-1]
	default:
		return fmt.Errorf("diff: want one or two paths, got %d args", fs.NArg())
	}
	if n := obs.DiffSummaries(os.Stdout, base, cur, *thresh); n > 0 {
		return fmt.Errorf("%d regression(s) beyond thresholds", n)
	}
	return nil
}

// top polls a live -debug-addr endpoint and renders the consim metric
// registry with per-interval deltas.
func top(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:6060", "debug endpoint (host:port of a -debug-addr run)")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	polls := fs.Int("n", 0, "stop after this many polls (0 = until the endpoint goes away)")
	fs.Parse(args)
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
			fmt.Fprintf(os.Stderr, "obs: %s stopped answering (%v)\n", *addr, err)
			return nil
		}
		fmt.Printf("-- %s %s (poll %d)\n", *addr, time.Now().Format("15:04:05"), i+1)
		obs.WriteVarsTable(os.Stdout, cur, prev)
		prev = cur
	}
	return nil
}
