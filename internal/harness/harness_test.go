package harness

import (
	"reflect"
	"strings"
	"testing"

	"consim/internal/core"
	"consim/internal/sched"
	"consim/internal/workload"
)

func TestTableIVMixes(t *testing.T) {
	het := HeterogeneousMixes()
	if len(het) != 9 {
		t.Fatalf("got %d heterogeneous mixes, want 9", len(het))
	}
	hom := HomogeneousMixes()
	if len(hom) != 4 {
		t.Fatalf("got %d homogeneous mixes, want 4", len(hom))
	}
	for _, m := range AllMixes() {
		if len(m.Classes) != 4 {
			t.Errorf("%s has %d VMs, want 4", m.ID, len(m.Classes))
		}
	}
	// Spot-check the paper's definitions.
	count := func(m Mix, c workload.Class) int {
		n := 0
		for _, x := range m.Classes {
			if x == c {
				n++
			}
		}
		return n
	}
	m1 := het[0]
	if count(m1, workload.TPCW) != 3 || count(m1, workload.TPCH) != 1 {
		t.Errorf("Mix 1 composition wrong: %v", m1.Classes)
	}
	m8 := het[7]
	if count(m8, workload.SPECjbb) != 2 || count(m8, workload.TPCW) != 2 {
		t.Errorf("Mix 8 composition wrong: %v", m8.Classes)
	}
	// SPECweb appears only in homogeneous mixes (paper's driver issue).
	for _, m := range het {
		if count(m, workload.SPECweb) != 0 {
			t.Errorf("%s contains SPECweb", m.ID)
		}
	}
	if hom[3].Classes[0] != workload.SPECweb {
		t.Error("Mix D is not SPECweb")
	}
}

func TestMixHelpers(t *testing.T) {
	m, err := MixByID("5")
	if err != nil || m.ID != "Mix 5" {
		t.Fatalf("MixByID(5) = %v, %v", m.ID, err)
	}
	if _, err := MixByID("Mix A"); err != nil {
		t.Error("full-form lookup failed")
	}
	if _, err := MixByID("Z"); err == nil {
		t.Error("unknown mix accepted")
	}
	if m.Homogeneous() {
		t.Error("Mix 5 reported homogeneous")
	}
	a, _ := MixByID("A")
	if !a.Homogeneous() {
		t.Error("Mix A not homogeneous")
	}
	if got := m.Name(); got != "SPECjbb(2)+TPC-H(2)" {
		t.Errorf("Mix 5 name = %q", got)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", RowHead: "row", Columns: []string{"a", "b"}}
	tb.Add("one", 1.5, 2.25)
	tb.Add("two", 3, 4)
	tb.Note("hello %d", 7)

	txt := tb.Text()
	for _, want := range []string{"X — demo", "one", "1.5000", "hello 7"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Text missing %q:\n%s", want, txt)
		}
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| one |") || !strings.Contains(md, "|---|") {
		t.Errorf("Markdown malformed:\n%s", md)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, "one,1.5,2.25") {
		t.Errorf("CSV malformed:\n%s", csv)
	}

	if v, ok := tb.Get("two", "b"); !ok || v != 4 {
		t.Errorf("Get = %v, %v", v, ok)
	}
	if _, ok := tb.Get("two", "zzz"); ok {
		t.Error("Get found a phantom column")
	}
	if _, ok := tb.Get("zzz", "a"); ok {
		t.Error("Get found a phantom row")
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := &Table{RowHead: "r", Columns: []string{`a,b`}}
	tb.Add(`he said "hi"`, 1)
	csv := tb.CSV()
	if !strings.Contains(csv, `"a,b"`) || !strings.Contains(csv, `"he said ""hi"""`) {
		t.Errorf("escaping broken:\n%s", csv)
	}
}

func testRunner() *Runner {
	return NewRunner(Options{
		Scale:       64,
		WarmupRefs:  15_000,
		MeasureRefs: 30_000,
		Seed:        1,
	})
}

func TestRunnerMemoization(t *testing.T) {
	r := testRunner()
	a, err := r.RunIsolation(workload.TPCH, 4, sched.Affinity)
	if err != nil {
		t.Fatal(err)
	}
	// The same configuration asked for as a raw config is the same run.
	b, err := r.RunConfigs([]core.Config{r.isolationConfig(workload.TPCH, 4, sched.Affinity)})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.cache) != 1 || r.Sims() != 1 {
		t.Errorf("second identical run was not served from cache: %d entries, %d sims", len(r.cache), r.Sims())
	}
	if !reflect.DeepEqual(a, b[0]) {
		t.Error("cached result differs")
	}
}

func TestRunnerMixAndIsolationKeysDistinct(t *testing.T) {
	r := testRunner()
	mix, _ := MixByID("A") // four TPC-W VMs
	iso := r.isolationConfig(workload.TPCW, 4, sched.Affinity)
	mixed := r.mixConfig(mix, 4, sched.Affinity)
	ki, _ := configKeyOf(&iso)
	km, _ := configKeyOf(&mixed)
	if ki == km {
		t.Fatal("isolation and mix configs share a memo key")
	}
	if _, err := r.RunIsolation(workload.TPCW, 4, sched.Affinity); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunMix(mix, 4, sched.Affinity); err != nil {
		t.Fatal(err)
	}
	if len(r.cache) != 2 || r.Sims() != 2 {
		t.Errorf("cache holds %d entries after %d sims, want 2 and 2", len(r.cache), r.Sims())
	}
}

func TestDefaultOptionsApplied(t *testing.T) {
	r := NewRunner(Options{})
	if r.Options().Scale != 1 || r.Options().WarmupRefs == 0 || r.Options().MeasureRefs == 0 {
		t.Errorf("zero options not defaulted: %+v", r.Options())
	}
}

func TestGroupSizeNames(t *testing.T) {
	if groupSizeName(1) != "private" || groupSizeName(16) != "shared" {
		t.Error("endpoint names wrong")
	}
	if !strings.Contains(groupSizeName(4), "shared-4") {
		t.Errorf("groupSizeName(4) = %q", groupSizeName(4))
	}
}

func TestFigureDispatch(t *testing.T) {
	r := testRunner()
	if _, err := r.RunFigure("nope"); err == nil {
		t.Error("unknown figure accepted")
	}
	ids := FigureIDs()
	if len(ids) != 13 {
		t.Errorf("%d artifacts, want 13 (Table II + Figures 2-13)", len(ids))
	}
}

// TestFigureShapes runs the cheap isolation-based artifacts at tiny scale
// and checks their row/column structure matches the paper's figures.
func TestFigureShapes(t *testing.T) {
	r := testRunner()

	t2, err := r.tableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 4 || len(t2.Columns) != 4 {
		t.Errorf("T2 shape %dx%d", len(t2.Rows), len(t2.Columns))
	}

	f2, err := r.fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Rows) != 4 || len(f2.Columns) != 8 { // 4 orgs x 2 policies
		t.Errorf("F2 shape %dx%d", len(f2.Rows), len(f2.Columns))
	}
	// Baseline column must be 1.0 by construction.
	for _, row := range f2.Rows {
		if row.Values[1] != 1.0 { // shared/affinity is the baseline
			t.Errorf("%s shared/affinity = %v, want 1.0", row.Label, row.Values[1])
		}
	}

	f4, err := r.fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Columns) != 12 { // 3 orgs x 4 policies
		t.Errorf("F4 has %d columns", len(f4.Columns))
	}
}

// TestHomogeneousFigureShapes covers the Mix A-D artifacts at tiny scale.
func TestHomogeneousFigureShapes(t *testing.T) {
	r := testRunner()
	f5, err := r.fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Rows) != 4 || len(f5.Columns) != 4 {
		t.Errorf("F5 shape %dx%d", len(f5.Rows), len(f5.Columns))
	}
	for _, row := range f5.Rows {
		for i, v := range row.Values {
			if v <= 0 {
				t.Errorf("F5 %s col %d non-positive: %v", row.Label, i, v)
			}
		}
	}
	f12, err := r.fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(f12.Columns) != 4 { // rr, aff-rr, random, private bound
		t.Errorf("F12 has %d columns", len(f12.Columns))
	}
	for _, row := range f12.Rows {
		for i, v := range row.Values {
			if v < 0 || v > 1 {
				t.Errorf("F12 %s col %d out of [0,1]: %v", row.Label, i, v)
			}
		}
	}
}

func TestVariabilityStudy(t *testing.T) {
	r := NewRunner(Options{Scale: 64, WarmupRefs: 8_000, MeasureRefs: 15_000})
	tb, err := r.variabilityStudy(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 { // 3 mixes x 4 VMs
		t.Fatalf("variability rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row.Values[0] <= 0 {
			t.Errorf("%s: non-positive mean", row.Label)
		}
		if row.Values[2] < 0 || row.Values[2] > 1 {
			t.Errorf("%s: implausible CV %v", row.Label, row.Values[2])
		}
	}
}

func TestAblationDispatch(t *testing.T) {
	if len(AblationIDs()) != 6 {
		t.Errorf("ablation count = %d", len(AblationIDs()))
	}
	r := testRunner()
	if _, err := r.RunAblation("A9"); err == nil {
		t.Error("unknown ablation accepted")
	}
}

func TestTableBars(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", RowHead: "row", Columns: []string{"a"}}
	tb.Add("one", 2)
	tb.Add("two", 4)
	out := tb.Bars(10)
	if !strings.Contains(out, "two") || !strings.Contains(out, "##########") {
		t.Errorf("Bars output malformed:\n%s", out)
	}
	// The half-value row gets half the bar.
	if !strings.Contains(out, "2.0000 #####\n") {
		t.Errorf("bar scaling wrong:\n%s", out)
	}
	if tb.Bars(0) == "" {
		t.Error("default width broken")
	}
}
