package consim_test

import (
	"flag"
	"io"
	"strings"
	"testing"

	"consim"
)

// TestPublicAPIQuickstart exercises the facade exactly as README's
// quickstart does.
func TestPublicAPIQuickstart(t *testing.T) {
	specs := consim.WorkloadSpecs()
	cfg := consim.DefaultConfig(specs[consim.TPCH])
	cfg.GroupSize = 4
	cfg.Policy = consim.Affinity
	cfg.Scale = 32
	cfg.WarmupRefs = 20_000
	cfg.MeasureRefs = 40_000

	res, err := consim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VMs) != 1 || res.VMs[0].Stats.Refs == 0 {
		t.Fatalf("degenerate result: %+v", res.VMs)
	}
}

func TestPublicAPIMixes(t *testing.T) {
	if len(consim.HeterogeneousMixes()) != 9 || len(consim.HomogeneousMixes()) != 4 {
		t.Error("Table IV mix counts wrong")
	}
	mix, err := consim.MixByID("7")
	if err != nil {
		t.Fatal(err)
	}
	if mix.Name() != "SPECjbb(3)+TPC-W(1)" {
		t.Errorf("Mix 7 = %s", mix.Name())
	}
}

func TestPublicAPILookups(t *testing.T) {
	if _, err := consim.WorkloadByName("TPC-W"); err != nil {
		t.Error(err)
	}
	if _, err := consim.PolicyByName("aff-rr"); err != nil {
		t.Error(err)
	}
	if len(consim.AllPolicies()) != 4 {
		t.Error("policy count wrong")
	}
	if len(consim.FigureIDs()) != 13 {
		t.Error("artifact count wrong")
	}
}

func TestPublicAPIRunnerFigure(t *testing.T) {
	r := consim.NewRunner(consim.RunnerOptions{
		Scale:       64,
		WarmupRefs:  10_000,
		MeasureRefs: 20_000,
	})
	tb, err := r.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Errorf("Table II rows = %d", len(tb.Rows))
	}
	if tb.Text() == "" || tb.Markdown() == "" || tb.CSV() == "" {
		t.Error("formatting empty")
	}
}

func TestSystemAssignmentExposed(t *testing.T) {
	specs := consim.WorkloadSpecs()
	cfg := consim.DefaultConfig(specs[consim.TPCW], specs[consim.SPECjbb])
	cfg.Scale = 64
	sys, err := consim.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Assignment()) != 2 {
		t.Error("assignment shape wrong")
	}
}

func TestPublicAPIPhases(t *testing.T) {
	phases := consim.TwoPhase(1000)
	if len(phases) != 2 {
		t.Fatalf("TwoPhase returned %d phases", len(phases))
	}
	spec := consim.WorkloadSpecs()[consim.TPCH].WithPhases(phases...)
	if len(spec.Phases) != 2 {
		t.Error("WithPhases did not attach phases")
	}
	if len(consim.AblationIDs()) != 6 {
		t.Error("ablation IDs wrong")
	}
}

// TestPdesFlags parses -pdes argument lists the way the CLIs do and
// checks that an inconsistent list is refused with the same message
// whether the flags fill a Config (consim, calibrate, trace) or a
// RunnerOptions (tables, ablate), and that a consistent one lands all
// four values in both.
func TestPdesFlags(t *testing.T) {
	type vals struct {
		pdes, replay int
		window       consim.Cycle
		pipeline     bool
	}
	for _, tc := range []struct {
		args    string
		want    vals
		wantErr string
	}{
		{args: ""},
		{args: "-pdes 1"},
		{args: "-pdes 2", want: vals{pdes: 2}},
		{args: "-pdes 4 -pdes-window 8192", want: vals{pdes: 4, window: 8192}},
		{args: "-pdes 2 -pdes-replay-workers 2", want: vals{pdes: 2, replay: 2}},
		{args: "-pdes 4 -pdes-window 4096 -pdes-replay-workers 2 -pdes-pipeline",
			want: vals{pdes: 4, replay: 2, window: 4096, pipeline: true}},
		{args: "-pdes-window 8192", wantErr: "-pdes-window requires -pdes > 1"},
		{args: "-pdes-replay-workers 2", wantErr: "-pdes-replay-workers requires -pdes > 1"},
		{args: "-pdes-replay-workers 2 -pdes-pipeline", wantErr: "-pdes-replay-workers requires -pdes > 1"},
		{args: "-pdes 1 -pdes-pipeline", wantErr: "-pdes-pipeline requires -pdes > 1"},
		{args: "-pdes 2 -pdes-pipeline", wantErr: "-pdes-pipeline requires -pdes-replay-workers >= 2"},
		{args: "-pdes 2 -pdes-replay-workers 1 -pdes-pipeline", wantErr: "-pdes-pipeline requires -pdes-replay-workers >= 2"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var pf consim.PdesFlags
		pf.Register(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		var cfg consim.Config
		var opt consim.RunnerOptions
		for into, err := range map[string]error{
			"Config":         pf.Apply(&cfg),
			"RunnerOptions":  pf.ApplyRunner(&opt),
			"CheckExclusive": pf.CheckExclusive(consim.SampleConfig{}),
		} {
			if got := errString(err); got != tc.wantErr {
				t.Errorf("%q into %s: error %q, want %q", tc.args, into, got, tc.wantErr)
			}
		}
		if got := (vals{cfg.Pdes, cfg.PdesReplayWorkers, cfg.PdesWindow, cfg.PdesPipeline}); got != tc.want {
			t.Errorf("%q: Config got %+v, want %+v", tc.args, got, tc.want)
		}
		if got := (vals{opt.Pdes, opt.PdesReplayWorkers, opt.PdesWindow, opt.PdesPipeline}); got != tc.want {
			t.Errorf("%q: RunnerOptions got %+v, want %+v", tc.args, got, tc.want)
		}
	}

	// Two intra-run engines at once are refused whatever the rest says.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var pf consim.PdesFlags
	pf.Register(fs)
	if err := fs.Parse([]string{"-pdes", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := pf.CheckExclusive(consim.SampleConfig{WindowRefs: 1000}); err == nil {
		t.Error("-pdes 2 with sampling on was accepted")
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
