package consim_test

import (
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
	tb, err := r.RunFigure("T2")
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
