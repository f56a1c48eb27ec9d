// Command tables regenerates every table and figure of the paper's
// evaluation section (Table II and Figures 2-13) and prints them as text
// or markdown. This is the harness behind EXPERIMENTS.md.
//
// All requested artifacts are scheduled through one deduplicated work
// queue with up to -parallel (default GOMAXPROCS) simulations in flight;
// parallelism never changes the tables, only the wall time.
//
//	tables                      # everything, full scale
//	tables -scale 4             # reduced scale (~minutes)
//	tables -exp F8,F9           # selected artifacts
//	tables -parallel 1          # serial execution
//	tables -format md           # markdown output
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"consim"
	"consim/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		exp      = flag.String("exp", "", "comma-separated artifact IDs (default: all of T2,F2..F13)")
		scale    = flag.Int("scale", 1, "divide cache capacities and footprints")
		seed     = flag.Uint64("seed", 1, "random seed")
		warm     = flag.Uint64("warm", 600_000, "warm-up references per core")
		meas     = flag.Uint64("meas", 1_000_000, "measured references per core")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), consim.ParallelFlagUsage)
		format   = flag.String("format", "text", "output format: text, md, csv, bars")
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
	if o != nil {
		o.Parallel = *parallel
	}

	ids := consim.FigureIDs()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}

	if err := pflags.CheckExclusive(sflags.Config()); err != nil {
		return err
	}
	opt := consim.RunnerOptions{
		Scale:       *scale,
		Seed:        *seed,
		WarmupRefs:  *warm,
		MeasureRefs: *meas,
		Parallel:    *parallel,
		Sample:      sflags.Config(),
		Obs:         o,
	}
	if err := pflags.ApplyRunner(&opt); err != nil {
		return err
	}
	r := consim.NewRunner(opt)

	// The whole batch goes through one deduplicated work queue: shared
	// isolation baselines simulate once, and up to -parallel simulations
	// run at a time across all requested figures.
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
	fmt.Fprintf(os.Stderr, "[%d artifacts from %d simulations in %v]\n",
		len(tables), r.Sims(), time.Since(start).Round(time.Millisecond))
	return nil
}
