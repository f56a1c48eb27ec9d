// Command benchmark is consim's benchmark: seven named workloads run
// through the public API, end-to-end metrics measured with tracing off,
// and a per-layer ledger taken from outside by a traced pass. It is the
// repository's only source of performance claims; see README.md here and
// BENCHMARK.json at the repository root.
//
// One invocation measures one workload in one process:
//
//	benchmark --workload mix4_s16 --seed 1 --seconds 10 --trace 0
//
// and prints a result object as the last line of its output. -all runs
// every workload in both passes (each in a child process) and writes
// one document; -compare judges two such documents against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostInfo is recorded in every output: a host-time number means
// nothing without the machine it was taken on.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

// maxProcs caps GOMAXPROCS: the load is one process with at most
// min(nproc, 4) threads.
const maxProcs = 4

func host() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.GitRev = s.Value
			}
		}
	}
	return h
}

// result is the object printed as the last line of a single-workload
// run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is printed on the line before the result: what the result
// object has no room for. -all collects it into its document.
type detail struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Quick       bool              `json:"quick"`
	Host        hostInfo          `json:"host"`
	StatsDigest string            `json:"stats_digest"`
	Timings     map[string]timing `json:"timings,omitempty"`
	// Simulated statistics that are exact per (seed, knobs); present only
	// on the workloads that define them.
	MaxRelErr *float64 `json:"max_rel_err,omitempty"`
	ErrBound  *float64 `json:"err_bound,omitempty"`
	Table2Err *float64 `json:"table2_err,omitempty"`
	// Estimated lists the per-layer counts the program does not expose,
	// which the traced pass derives instead of reading.
	Estimated []string `json:"estimated,omitempty"`
	Notes     []string `json:"notes,omitempty"`
}

func main() {
	if n := runtime.NumCPU(); n < maxProcs {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(maxProcs)
	}
	var (
		name    = flag.String("workload", "", "workload to run (one of: "+workloadNames()+")")
		seed    = flag.Uint64("seed", 1, "workload seed (Config.Seed / RunnerOptions.Seed)")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass, per-layer metrics")
		quick   = flag.Bool("quick", false, "smoke run: 1 rep, no trace, budgets / 5; flagged quick, never gated on")
		all     = flag.Bool("all", false, "run every workload in both passes, each in a child process, and write one document")
		out     = flag.String("out", "", "with -all: write the document to this file instead of standard output")
		compare = flag.Bool("compare", false, "compare two -all documents (args: A.json B.json) against the bounds; exit 1 on a breach")
		spans   = flag.String("spans", "", "with -trace 1: dump the staged replay's spans to this file as JSON")
		tmp     = flag.String("tmp", "", "directory for scratch files (default: the working directory)")
	)
	flag.Parse()
	opt := runOpts{seed: *seed, seconds: *seconds, quick: *quick, tmpDir: *tmp}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two documents: A.json B.json")
			break
		}
		var breached bool
		breached, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && breached {
			os.Exit(1)
		}
	case *all:
		err = runAll(opt, *out)
	case *name != "":
		err = runOne(*name, opt, *trace != 0 && !*quick, *spans)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runOne measures one workload in this process and prints the detail
// line and the result line.
func runOne(name string, opt runOpts, traced bool, spansPath string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have: %s)", name, workloadNames())
	}
	d := detail{Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Trace: traced, Quick: opt.quick, Host: host()}
	var res result
	var p *pass
	if traced {
		t, err := tracePass(w, opt)
		if err != nil {
			return err
		}
		p = t.pass
		res.Metrics = metricSet(perLayer, t.values)
		d.Estimated = estimatedCounts
		if spansPath != "" {
			if err := t.replay.writeSpans(spansPath); err != nil {
				return err
			}
		}
		t.print(os.Stdout)
	} else {
		var err error
		if p, err = measure(w, opt); err != nil {
			return err
		}
		res.Metrics = metricSet(endToEnd, p.endToEndValues())
		d.Timings = map[string]timing{
			"refs_per_s":      p.refsPerS,
			"wall_s":          p.wallS,
			"setup_s":         p.setupS,
			"peak_rss_mb":     p.peakRSS,
			"allocs_per_mref": p.allocsMref,
		}
	}
	res.Attempted, res.Failed, res.Correct = p.attempted, p.failed, p.failed == 0
	d.StatsDigest, d.Notes = p.digest, p.notes
	if w.reference != nil {
		d.MaxRelErr, d.ErrBound = &p.maxRelErr, &p.errBound
	}
	if w.table2 {
		d.Table2Err = &p.table2Err
	}
	printSummary(w, p, res)
	if err := printJSONLine("detail ", d); err != nil {
		return err
	}
	return printJSONLine("", res)
}

// printSummary writes the human-readable account of a run: one line per
// metric, name then value then unit.
func printSummary(w workload, p *pass, res result) {
	fmt.Printf("workload %s: %d reps, %d refs per rep, stats_digest %s\n", w.name, len(p.reps), p.refs, p.digest)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if w.reference != nil {
		fmt.Printf("  max_rel_err against %s: %.4f (bound %.4f)\n", w.referenceName, p.maxRelErr, p.errBound)
	}
	if w.table2 {
		fmt.Printf("  table2_err: %.4f\n", p.table2Err)
	}
	fmt.Printf("  failed %d of %d operations\n", p.failed, p.attempted)
	for _, n := range p.notes {
		fmt.Printf("  failure: %s\n", n)
	}
}

func printJSONLine(prefix string, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s%s\n", prefix, buf)
	return err
}
