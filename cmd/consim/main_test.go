package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"consim/internal/harness"
	"consim/internal/obs"
	"consim/internal/sim"
)

func TestMain(m *testing.M) {
	stderr = io.Discard // usage text and sink notes
	os.Exit(m.Run())
}

// simulators returns every simulating subcommand's parser, trace replay
// reading a small trace recorded for the test.
func simulators(t *testing.T) map[string]func([]string) (*job, error) {
	t.Helper()
	trc := filepath.Join(t.TempDir(), "t.trc")
	if err := record([]string{"-out", trc, "-refs", "2000", "-scale", "64"}); err != nil {
		t.Fatal(err)
	}
	return map[string]func([]string) (*job, error){
		"run":       parseRun,
		"tables":    parseTables,
		"ablate":    parseAblate,
		"calibrate": parseCalibrate,
		"trace replay": func(args []string) (*job, error) {
			return parseReplay(append([]string{trc}, args...))
		},
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestDispatch(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string
	}{
		{"bogus", `"bogus" is not a command`},
		{"trace", `"trace" is not a command`},
		{"obs frobnicate", `"obs frobnicate" is not a command`},
		{"obs top", `"obs top" is not a command`},
		{"obs", `"obs" is not a command`},
		{"bogus extra", `"bogus" is not a command`},
		{"-h", flag.ErrHelp.Error()},
		{"run -h", flag.ErrHelp.Error()},
		{"trace replay -h", flag.ErrHelp.Error()},
		{"obs report -h", flag.ErrHelp.Error()},
		{"-shards 2", "usage: flag provided but not defined: -shards"},
		{"-pdes 2 -pdes-pipeline", "usage: flag provided but not defined: -pdes-pipeline"},
		{"-pdes 2 -pdes-replay-workers 2", "usage: flag provided but not defined: -pdes-replay-workers"},
		{"tables -exp T2 extra", "usage: consim tables: 1 operands"},
		{"trace replay", "usage: consim trace replay: 0 operands"},
		{"obs diff a b c", "usage: consim obs diff: 3 operands"},
		{"ablate -exp A1,ZZ", `unknown ablation "ZZ" (want A1,A2,A3,A4,A5,A6)`},
		{"tables -exp T2,F99", `unknown figure "F99"`},
	} {
		err := dispatch(strings.Fields(tc.args))
		if got := errString(err); !strings.HasPrefix(got, tc.wantErr) {
			t.Errorf("%q: error %q, want prefix %q", tc.args, got, tc.wantErr)
		}
	}
}

// TestSubcommandArgs maps argument lists to the configurations and runner
// options each subcommand would execute.
func TestSubcommandArgs(t *testing.T) {
	parsers := simulators(t)
	opt := func(scale int, seed, warm, meas uint64, parallel int) harness.Options {
		return harness.Options{Scale: scale, Seed: seed, WarmupRefs: warm, MeasureRefs: meas, Parallel: parallel}
	}
	type cfgView struct {
		group, scale int
		seed, meas   uint64
		workloads    int
	}
	for _, tc := range []struct {
		cmd, args string
		opt       harness.Options
		cfgs      []cfgView
	}{
		{cmd: "tables", args: "-parallel 3", opt: opt(1, 1, 600_000, 1_000_000, 3)},
		{cmd: "ablate", args: "-parallel 2 -exp A1", opt: opt(4, 1, 300_000, 500_000, 2)},
		{cmd: "run", args: "-parallel 1 -mix 5 -group 1,16 -scale 32 -meas 20", opt: opt(32, 1, 600_000, 20, 1),
			cfgs: []cfgView{{1, 32, 1, 20, 4}, {16, 32, 1, 20, 4}}},
		{cmd: "calibrate", args: "-parallel 1 -gradient -only TPC-W -seed 7", opt: opt(1, 7, 600_000, 1_000_000, 1),
			cfgs: []cfgView{{1, 1, 7, 1_000_000, 1}, {16, 1, 7, 1_000_000, 1}, {4, 1, 7, 1_000_000, 1}, {1, 1, 7, 1_000_000, 1}}},
		{cmd: "trace replay", args: "-group 1 -seed 3", opt: opt(1, 3, 50_000, 100_000, 1),
			cfgs: []cfgView{{1, 1, 3, 100_000, 1}}},
	} {
		j, err := parsers[tc.cmd](strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%s %s: %v", tc.cmd, tc.args, err)
		}
		if !reflect.DeepEqual(j.opt, tc.opt) {
			t.Errorf("%s %s: options %+v, want %+v", tc.cmd, tc.args, j.opt, tc.opt)
		}
		var got []cfgView
		for _, c := range j.cfgs {
			got = append(got, cfgView{c.GroupSize, c.Scale, c.Seed, c.MeasureRefs, len(c.Workloads)})
		}
		if !reflect.DeepEqual(got, tc.cfgs) {
			t.Errorf("%s %s: configs %+v, want %+v", tc.cmd, tc.args, got, tc.cfgs)
		}
	}
}

// TestPdesFlags parses engine argument lists through every simulating
// subcommand: a consistent list lands in the runner options and in each
// configuration the subcommand runs itself, and an inconsistent one is
// refused with core.Config.Validate's message, the same from all of them.
func TestPdesFlags(t *testing.T) {
	type vals struct {
		pdes   int
		window sim.Cycle
		sample uint64
	}
	const traceRefusal = "core: pdes requires statistical generators, not trace sources"
	parsers := simulators(t)
	for _, tc := range []struct {
		args    string
		want    vals
		wantErr string
	}{
		{args: ""},
		{args: "-pdes 1", want: vals{pdes: 1}},
		{args: "-pdes 2", want: vals{pdes: 2}},
		{args: "-pdes 4 -pdes-window 8192", want: vals{pdes: 4, window: 8192}},
		{args: "-pdes 2 -pdes-window 1048576", want: vals{pdes: 2, window: 1 << 20}},
		{args: "-sample 500 -sample-ci 0.2", want: vals{sample: 500}},
		{args: "-pdes-window 8192", wantErr: "core: a pdes window requires the parallel engine (Pdes > 1)"},
		{args: "-pdes 2 -pdes-window 1048577", wantErr: "core: pdes window 1048577 exceeds the maximum 1048576 cycles"},
		{args: "-pdes 2 -pdes-window 18446744073709551615", wantErr: "core: pdes window 18446744073709551615 exceeds the maximum 1048576 cycles"},
		{args: "-sample 500 -sample-ci NaN", wantErr: "core: CI target NaN is not a finite non-negative number"},
		{args: "-sample 500 -sample-ci +Inf", wantErr: "core: CI target +Inf is not a finite non-negative number"},
		{args: "-pdes 2 -sample 1000", wantErr: "core: pdes and interval sampling are mutually exclusive engines"},
		{args: "-pdes 64", wantErr: "core: 64 pdes workers exceed 16 cores"},
		{args: "-sample 1000 -sample-ratio -1", wantErr: "core: negative fast-forward ratio -1"},
		{args: "-pdes -1", wantErr: "core: negative pdes worker count -1"},
	} {
		for name, parse := range parsers {
			wantErr := tc.wantErr
			if name == "trace replay" && tc.want.pdes > 1 {
				wantErr = traceRefusal
			}
			j, err := parse(strings.Fields(tc.args))
			if got := errString(err); got != wantErr {
				t.Errorf("%s %q: error %q, want %q", name, tc.args, got, wantErr)
			}
			if err != nil {
				continue
			}
			o := j.opt
			if got := (vals{o.Pdes, o.PdesWindow, o.Sample.WindowRefs}); got != tc.want {
				t.Errorf("%s %q: options got %+v, want %+v", name, tc.args, got, tc.want)
			}
			for _, c := range j.cfgs {
				if got := (vals{c.Pdes, c.PdesWindow, c.Sample.WindowRefs}); got != tc.want {
					t.Errorf("%s %q: config got %+v, want %+v", name, tc.args, got, tc.want)
				}
			}
		}
	}
}

// TestTraceReplayFlagOrder checks that flags parse on either side of the
// trace path.
func TestTraceReplayFlagOrder(t *testing.T) {
	trc := filepath.Join(t.TempDir(), "t.trc")
	if err := record([]string{"-out", trc, "-refs", "2000", "-scale", "64"}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{trc, "-group", "1", "-policy", "rr", "-meas", "500"},
		{"-group", "1", "-policy", "rr", "-meas", "500", trc},
		{"-group", "1", trc, "-policy", "rr", "-meas", "500"},
	} {
		j, err := parseReplay(args)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if c := j.cfgs[0]; c.GroupSize != 1 || c.Policy.String() != "rr" || c.MeasureRefs != 500 || len(c.Sources) != 1 {
			t.Errorf("%q: config group %d policy %s meas %d sources %d", args, c.GroupSize, c.Policy, c.MeasureRefs, len(c.Sources))
		}
	}
}

// TestSinkFlushFailureFails drives a subcommand whose -tracefile cannot be
// written: the run succeeds, the flush at exit does not, and the command
// must fail.
func TestSinkFlushFailureFails(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	defer func() { os.Stdout = stdout }()
	err := dispatch([]string{"calibrate", "-only", "TPC-H", "-scale", "64", "-warm", "100", "-meas", "1000",
		"-tracefile", filepath.Join(file, "t.json")})
	if err == nil || errors.Is(err, errUsage) {
		t.Fatalf("calibrate with an unwritable -tracefile: error %v, want a flush failure", err)
	}
}

// TestCalibrateGradientRunsEachConfigOnce runs calibrate -gradient on one
// workload: its groups are private, shared, shared-4 and private again,
// and the repeated private-LLC configuration simulates once, so the
// manifest holds three records, not four.
func TestCalibrateGradientRunsEachConfigOnce(t *testing.T) {
	man := filepath.Join(t.TempDir(), "m.jsonl")
	out := stdoutOf(t, "calibrate", "-gradient", "-only", "TPC-W", "-scale", "64", "-warm", "100", "-meas", "1000", "-manifest", man)
	if n := strings.Count(out, "gs="); n != 3 {
		t.Errorf("calibrate printed %d gradient rows, want 3:\n%s", n, out)
	}
	ms, err := obs.ReadManifests(man)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Errorf("manifest holds %d records, want 3", len(ms))
	}
}
