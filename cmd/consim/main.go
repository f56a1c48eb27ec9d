// Command consim is the simulator's one binary. Its simulating
// subcommands share one run-flag set (budgets, seed, scale, -parallel,
// the -sample engine, the observability sinks, the pprof profiles and
// an optional pprof debug server, sinks.go), one
// validation path (core.Config.Validate) and one batch pool (the harness
// runner):
//
//	consim [run] -mix 5 -group 1,4,16    one configuration, or a group sweep
//	consim tables -exp T2,F8 -scale 16   Table II and Figures 2-13
//	consim ablate|calibrate ...          ablation studies, Table II calibration
//	consim obs report m.jsonl            run manifests
//
// run is the default when the first argument is a flag. Flags and
// operands may come in either order; -h prints a subcommand's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"consim/internal/core"
	"consim/internal/harness"
	"consim/internal/workload"
)

// stderr takes usage text, sink status notes and progress lines.
var stderr io.Writer = os.Stderr

func main() {
	switch err := dispatch(os.Args[1:]); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag set has printed the error and its usage
	default:
		fmt.Fprintln(os.Stderr, "consim:", err)
		os.Exit(1)
	}
}

// errUsage marks an argument error the flag set has already reported.
var errUsage = errors.New("usage")

var commands = map[string]func([]string) error{
	"run":        simulating(parseRun),
	"tables":     simulating(parseTables),
	"ablate":     simulating(parseAblate),
	"calibrate":  simulating(parseCalibrate),
	"obs report": report,
}

// dispatch runs the (two-word) subcommand args start with; run when they
// start with a flag or are empty.
func dispatch(args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		args = append([]string{"run"}, args...)
	}
	if len(args) > 1 && commands[args[0]+" "+args[1]] != nil {
		args = append([]string{args[0] + " " + args[1]}, args[2:]...)
	}
	if cmd := commands[args[0]]; cmd != nil {
		return cmd(args[1:])
	}
	var names []string
	group := false
	for n := range commands {
		names = append(names, n)
		group = group || strings.HasPrefix(n, args[0]+" ")
	}
	sort.Strings(names)
	tried := args[0]
	if group && len(args) > 1 {
		tried += " " + args[1] // "obs frobnicate", not "obs", is what was not found
	}
	return fmt.Errorf("%q is not a command (want %s)", tried, strings.Join(names, ", "))
}

// newFlagSet returns the flag set of subcommand name, whose usage line
// names its operands.
func newFlagSet(name, operands string) *flag.FlagSet {
	fs := flag.NewFlagSet("consim "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), strings.TrimSpace("usage: "+fs.Name()+" [flags] "+operands))
		fs.PrintDefaults()
	}
	return fs
}

// parse parses args into fs with flags and operands in any order, and
// returns the operands, of which there must be min to max.
func parse(fs *flag.FlagSet, args []string, min, max int) ([]string, error) {
	var ops []string
	for len(args) > 0 {
		if err := fs.Parse(args); err != nil {
			if err != flag.ErrHelp {
				err = fmt.Errorf("%w: %v", errUsage, err)
			}
			return nil, err
		}
		if args = fs.Args(); len(args) > 0 {
			ops, args = append(ops, args[0]), args[1:]
		}
	}
	if len(ops) < min || len(ops) > max {
		fs.Usage()
		return nil, fmt.Errorf("%w: %s: %d operands", errUsage, fs.Name(), len(ops))
	}
	return ops, nil
}

// runFlags is the flag set every simulating subcommand shares, parsed
// into the runner options each of them executes under.
type runFlags struct {
	fs    *flag.FlagSet
	opt   harness.Options
	sinks sinkFlags
}

// newRunFlags registers the shared set with the subcommand's scale and
// budget defaults.
func newRunFlags(name string, scale int, warm, meas uint64) *runFlags {
	f := &runFlags{fs: newFlagSet(name, "")}
	fs, o, s := f.fs, &f.opt, &f.opt.Sample
	fs.IntVar(&o.Scale, "scale", scale, "divide cache capacities and footprints (1 = paper scale)")
	fs.IntVar(&o.Parallel, "parallel", runtime.GOMAXPROCS(0), "independent simulations to keep in flight at once (across-run parallelism; never changes results)")
	fs.Uint64Var(&o.Seed, "seed", 1, "random seed")
	fs.Uint64Var(&o.WarmupRefs, "warm", warm, "warm-up references per core")
	fs.Uint64Var(&o.MeasureRefs, "meas", meas, "measured references per core")
	fs.Uint64Var(&s.WindowRefs, "sample", 0, "detailed-window length in per-core references; >0 enables interval-sampled simulation (approximate: metrics become CI-bounded estimates)")
	fs.IntVar(&s.FFRatio, "sample-ratio", 0, "fast-forward length between windows as a multiple of -sample (default 4)")
	fs.Float64Var(&s.CITarget, "sample-ci", 0, "stop once every per-VM metric's relative 95% CI half-width reaches this (default 0.05)")
	fs.IntVar(&s.MinWindows, "sample-min-windows", 0, "fewest windows convergence may stop at (default 4)")
	fs.Uint64Var(&s.MaxRefs, "sample-max-refs", 0, "per-core detailed-reference budget; stop when reached even unconverged (default: the measurement budget)")
	f.sinks.register(fs)
	return f
}

// config returns the paper's machine around specs with the flags applied.
func (f *runFlags) config(specs ...workload.Spec) core.Config {
	cfg := core.DefaultConfig(specs...)
	cfg.Scale, cfg.Seed, cfg.WarmupRefs, cfg.MeasureRefs = f.opt.Scale, f.opt.Seed, f.opt.WarmupRefs, f.opt.MeasureRefs
	cfg.Sample = f.opt.Sample
	return cfg
}

// A job is a simulating subcommand after parsing: its flags, the
// configurations it runs itself (none for tables and ablate, whose
// figures derive theirs) and the step that simulates and prints.
type job struct {
	*runFlags
	cfgs []core.Config
	exec func(*harness.Runner, []core.Config) error
}

// job validates the flags' engine, then every configuration, so each
// subcommand refuses a command line with core.Config.Validate's message
// before any sink starts.
func (f *runFlags) job(cfgs []core.Config, exec func(*harness.Runner, []core.Config) error) (*job, error) {
	probe := core.DefaultConfig(workload.Specs()[workload.TPCH])
	probe.Sample = f.opt.Sample
	for _, cfg := range append([]core.Config{probe}, cfgs...) {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	return &job{f, cfgs, exec}, nil
}

// simulating makes a command of a simulating subcommand's parser: parse,
// start the sinks, execute on one runner, and stop the sinks, where a
// sink that fails to flush fails the command.
func simulating(parse func([]string) (*job, error)) func([]string) error {
	return func(args []string) (err error) {
		j, err := parse(args)
		if err != nil {
			return err
		}
		o, stop, err := j.sinks.start(stderr)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, stop()) }()
		j.opt.Obs = o
		return j.exec(harness.NewRunner(j.opt), j.cfgs)
	}
}
