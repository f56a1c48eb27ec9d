package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"consim"
	"consim/internal/vm"
)

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want timing
	}{
		{nil, timing{}},
		{[]float64{3}, timing{Median: 3, Q1: 3, Q3: 3, Min: 3, Max: 3, N: 1}},
		{[]float64{5, 1, 3}, timing{Median: 3, Q1: 1, Q3: 5, Min: 1, Max: 5, N: 3}},
		{[]float64{4, 1, 3, 2}, timing{Median: 2.5, Q1: 1.25, Q3: 3.75, Min: 1, Max: 4, N: 4}},
		// Python: statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
		{[]float64{9, 8, 7, 6, 5, 4, 3, 2, 1}, timing{Median: 5, Q1: 2.5, Q3: 7.5, Min: 1, Max: 9, N: 9}},
	} {
		in := append([]float64(nil), tc.in...)
		if got := summarize(tc.in); got != tc.want {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.in, got, tc.want)
		}
		if !reflect.DeepEqual(in, tc.in) {
			t.Errorf("summarize reordered its input: %v -> %v", in, tc.in)
		}
	}
}

// leaves returns a setter for every scalar reachable from v (struct
// fields and array elements), so a test can perturb each one in turn.
func leaves(v reflect.Value) []reflect.Value {
	switch v.Kind() {
	case reflect.Struct:
		var out []reflect.Value
		for i := 0; i < v.NumField(); i++ {
			out = append(out, leaves(v.Field(i))...)
		}
		return out
	case reflect.Array:
		var out []reflect.Value
		for i := 0; i < v.Len(); i++ {
			out = append(out, leaves(v.Index(i))...)
		}
		return out
	default:
		return []reflect.Value{v}
	}
}

// TestDigestCoversEveryStatsField perturbs each field of vm.Stats by
// reflection: a counter added to the struct later is covered without an
// edit, and one the digest skipped would leave it unchanged here.
func TestDigestCoversEveryStatsField(t *testing.T) {
	base := consim.Result{Cycles: 7, VMs: make([]consim.VMResult, 2)}
	base.Snapshot.ResidentLines, base.Snapshot.ReplicatedLines = 5, 3
	want := resultDigest(base)
	if got := resultDigest(base); got != want {
		t.Fatalf("digest of the same result differs: %s, %s", got, want)
	}

	var st vm.Stats
	ls := leaves(reflect.ValueOf(&st).Elem())
	if len(ls) < 10 {
		t.Fatalf("found only %d scalars in vm.Stats", len(ls))
	}
	for i, leaf := range ls {
		st = vm.Stats{}
		leaf.SetUint(1)
		res := base
		res.VMs = []consim.VMResult{{}, {Stats: st}}
		if resultDigest(res) == want {
			t.Errorf("vm.Stats scalar %d does not move the digest", i)
		}
	}

	for name, mutate := range map[string]func(*consim.Result){
		"Cycles":          func(r *consim.Result) { r.Cycles++ },
		"ResidentLines":   func(r *consim.Result) { r.Snapshot.ResidentLines++ },
		"ReplicatedLines": func(r *consim.Result) { r.Snapshot.ReplicatedLines++ },
	} {
		res := base
		mutate(&res)
		if resultDigest(res) == want {
			t.Errorf("%s does not move the digest", name)
		}
	}
}

func TestTablesDigest(t *testing.T) {
	tb := &consim.FigureTable{ID: "T2"}
	tb.Add("TPC-H", 0.69, 0.57)
	want := tablesDigest([]*consim.FigureTable{tb})
	tb.Rows[0].Values[1] = 0.58
	if tablesDigest([]*consim.FigureTable{tb}) == want {
		t.Error("a changed cell does not move the digest")
	}
}

// smallMix is a 4-VM mix small enough to build and replay in a test.
func smallMix() consim.Config {
	return mix4(1, 32, consim.RoundRobin, 2_000, 4_000)
}

// TestReplaySmoke replays two batches and checks that every stage ran,
// was timed inside a batch span, and left nothing queued.
func TestReplaySmoke(t *testing.T) {
	paced, err := consim.Run(smallMix())
	if err != nil {
		t.Fatal(err)
	}
	p := newProbe()
	r, err := newReplay(p, smallMix(), paced)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.active) != 16 {
		t.Fatalf("replay found %d active cores, want 16", len(r.active))
	}
	r.step(false)
	r.step(false)
	r.step(true)
	if r.done != 2*replayBatch {
		t.Errorf("replayed %d references, want %d", r.done, 2*replayBatch)
	}
	for _, name := range stageNames {
		c := p.cost[name]
		if c.ops == 0 || c.ns <= 0 {
			t.Errorf("stage %s: %d ops in %d ns", name, c.ops, c.ns)
		}
	}
	if got := p.cost[stageWorkload].ops; got != 2*replayBatch {
		t.Errorf("workload stage counted %d ops, want %d", got, 2*replayBatch)
	}
	if got := p.cost[stageEventQ].ops; got != 4*replayBatch {
		t.Errorf("event-queue stage counted %d ops, want a pop and a push per reference", got)
	}
	if n := len(r.qLLC) + len(r.qDir) + len(r.qTail); n != 0 {
		t.Errorf("%d events still queued after the final flush", n)
	}
	if r.q.Len() != len(r.active) {
		t.Errorf("event queue holds %d events, want one per active core", r.q.Len())
	}
	batches := 0
	for i, s := range p.spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Name == "batch" {
			batches++
			if s.Parent != -1 {
				t.Errorf("batch span %d has parent %d", i, s.Parent)
			}
			continue
		}
		if s.Parent < 0 || p.spans[s.Parent].Name != "batch" {
			t.Errorf("span %d (%s) is not the child of a batch", i, s.Name)
		}
	}
	if batches != 3 {
		t.Errorf("recorded %d batch spans, want 3", batches)
	}
	if mr := missRatio(r.l0); mr <= 0 || mr > 1 {
		t.Errorf("replay L0 miss ratio %v out of range", mr)
	}
}

// TestSharesSumToOne checks the share arithmetic on synthetic costs and
// counts: each share is ns/op x whole-run ops / wall, and the layer
// shares plus core.self_share are exactly 1.
func TestSharesSumToOne(t *testing.T) {
	paced, err := consim.Run(smallMix())
	if err != nil {
		t.Fatal(err)
	}
	p := newProbe()
	r, err := newReplay(p, smallMix(), paced)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range stageNames {
		*p.cost[name] = stageCost{ns: int64(1000 * (i + 1)), ops: 100} // 10, 20, ... ns/op
	}
	tr := &traced{
		pass:   &pass{refs: 1000, wallS: timing{Q1: 1e-3, N: 1}},
		values: map[string]float64{"harness.setup_share": 0.05},
		replay: p,
	}
	c := counts{
		refs: 1000, privMisses: 300, llcMisses: 100, invals: 10, upgrades: 20,
		l0Acc: 500, l1Acc: 400, l1Evict: 100, llcAcc: 150, llcEvict: 40,
		memReads: 30, memWritebacks: 10, dcHits: 60, dcMisses: 40,
		window: 2,
	}
	tr.ledger(c, r, paced, 1)
	v := tr.values
	wallNs := 1e6
	for name, want := range map[string]float64{
		"workload.share":      10 * 1000 / wallNs,
		"sim.eventq_share":    20 * 2000 / wallNs,
		"cache.private_share": 30 * 500 * 2 / wallNs,
		"cache.llc_share":     40 * 150 * 2 / wallNs,
		"coherence.share":     (50*(300+20+(100+40)*2) + 60*100) / wallNs,
		"mesh.share":          70 * (3*100 + 2*10 + 2*20) * 15 / 16 / wallNs,
		"memctrl.share":       80 * (30 + 10) * 2 / wallNs,
	} {
		if math.Abs(v[name]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
	sum := selfShare(v)
	for _, name := range shareNames {
		sum += v[name]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("layer shares plus core.self_share sum to %v, want 1", sum)
	}
	if s := selfShare(v); s <= 0 || s >= 1 {
		t.Errorf("core.self_share = %v on costs chosen to leave a remainder", s)
	}
}

func docWith(wall, setup, allocs float64) document {
	d := document{Benchmark: "consim", Seed: 1}
	for _, m := range endToEnd {
		d.EndToEnd = append(d.EndToEnd, docMetric{m.Name, m.Unit, m.Better, m.Bound, m.Floor})
	}
	d.Workloads = []workloadDoc{{
		Name: "mix4_s16", StatsDigest: "abc", Attempted: 8,
		EndToEnd: map[string]metricValue{
			"refs_per_s":      {Value: 4e6 / wall, Unit: "refs/s"},
			"wall_s":          {Value: wall, Unit: "s"},
			"setup_s":         {Value: setup, Unit: "s"},
			"peak_rss_mb":     {Value: 30, Unit: "MB"},
			"allocs_per_mref": {Value: allocs, Unit: "allocs/Mref"},
		},
	}}
	return d
}

func TestCompare(t *testing.T) {
	base := docWith(1.0, 0.002, 60)
	wallBound := 0.0
	for _, m := range endToEnd {
		if m.Name == "wall_s" {
			wallBound = m.Bound
		}
	}
	for _, tc := range []struct {
		name   string
		b      document
		breach bool
	}{
		{"identical", docWith(1.0, 0.002, 60), false},
		{"wall inside its bound", docWith(1+0.8*wallBound, 0.002, 60), false},
		{"wall beyond its bound", docWith(1+1.5*wallBound, 0.002, 60), true},
		{"faster is never a breach", docWith(0.5, 0.002, 60), false},
		{"set-up doubles but under the 5 ms floor", docWith(1.0, 0.004, 60), false},
		{"set-up beyond bound and floor", docWith(1.0, 0.012, 60), true},
		{"allocs up 25% but under the floor of 20", docWith(1.0, 0.002, 75), false},
		{"allocs beyond bound and floor", docWith(1.0, 0.002, 120), true},
	} {
		var out bytes.Buffer
		got, err := compareDocs(&out, base, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.breach {
			t.Errorf("%s: breach = %v, want %v\n%s", tc.name, got, tc.breach, out.String())
		}
	}

	var out bytes.Buffer
	failing := docWith(1.0, 0.002, 60)
	failing.Workloads[0].Failed, failing.Workloads[0].FailedFrac = 1, 0.125
	if got, _ := compareDocs(&out, base, failing); !got {
		t.Error("a rise in failed_frac is not a breach")
	}
	moved := docWith(1.0, 0.002, 60)
	moved.Workloads[0].StatsDigest = "abd"
	if got, _ := compareDocs(&out, base, moved); !got {
		t.Error("a changed stats_digest is not a breach")
	}
	e1, e2 := 0.02, 0.03
	withErr, otherErr := docWith(1.0, 0.002, 60), docWith(1.0, 0.002, 60)
	withErr.Workloads[0].MaxRelErr, otherErr.Workloads[0].MaxRelErr = &e1, &e2
	if got, _ := compareDocs(&out, withErr, otherErr); !got {
		t.Error("a changed max_rel_err is not a breach")
	}
	missing := docWith(1.0, 0.002, 60)
	missing.Workloads[0].Name = "other"
	if got, _ := compareDocs(&out, base, missing); !got {
		t.Error("a workload missing from B is not a breach")
	}
	quick := docWith(1.0, 0.002, 60)
	quick.Quick = true
	if _, err := compareDocs(&out, base, quick); err == nil {
		t.Error("-compare gated on a quick document")
	}
	reseeded := docWith(1.0, 0.002, 60)
	reseeded.Seed = 2
	if _, err := compareDocs(&out, base, reseeded); err == nil {
		t.Error("-compare accepted documents of different seeds")
	}
}

func TestParseRun(t *testing.T) {
	out := "workload x: 3 reps\n" +
		`detail {"workload":"x","stats_digest":"00ff","timings":{"wall_s":{"median":1.5,"min":1,"max":2,"n":3}}}` + "\n" +
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}` + "\n"
	res, det, err := parseRun([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 3 || res.Metrics["wall_s"].Value != 1.5 {
		t.Errorf("result parsed as %+v", res)
	}
	if det.StatsDigest != "00ff" || det.Timings["wall_s"].N != 3 {
		t.Errorf("detail parsed as %+v", det)
	}
	if _, _, err := parseRun([]byte("no result here\n")); err == nil {
		t.Error("output without a result line parsed")
	}
}

// TestWorkloadsBuild checks that every workload's configuration is
// accepted by the simulator, quick or not, and that the engine
// workloads name a reference.
func TestWorkloadsBuild(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads() {
		if seen[w.name] {
			t.Errorf("workload name %s used twice", w.name)
		}
		seen[w.name] = true
		if (w.config == nil) == (w.sweep == nil) {
			t.Errorf("%s: want exactly one of config and sweep", w.name)
		}
		if (w.reference == nil) != (w.errBound == nil) {
			t.Errorf("%s: reference and errBound go together", w.name)
		}
		if w.config == nil {
			continue
		}
		for _, quick := range []bool{false, true} {
			cfg := w.config(3)
			if quick {
				shrink(&cfg)
			}
			if _, err := consim.NewSystem(cfg); err != nil {
				t.Errorf("%s (quick=%v): %v", w.name, quick, err)
			}
		}
	}
	if _, ok := workloadByName("mix4_s16"); !ok {
		t.Error("workloadByName does not find mix4_s16")
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// this package in step: same workloads and reasons, same metrics, units,
// directions and bounds, all within the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", b.RunSeconds)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, j, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d (limit 128)", len(b.PerLayer), len(perLayer))
	}
	names := map[string]bool{}
	for i, m := range perLayer {
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %s %s %s", i, j, m.Name, m.Unit, m.Better)
		}
		if m.Moves == "" {
			t.Errorf("%s: no note on what it should move", m.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		names[m.Name] = true
		if len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("%s (%s): name or unit too long", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}
