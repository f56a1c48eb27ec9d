package harness

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"consim/internal/core"
	"consim/internal/sched"
	"consim/internal/workload"
)

// TestRunnerSingleFlight hammers one configuration from many goroutines,
// half through RunIsolation and half through RunConfigs, and asserts
// exactly one simulation executed — the seed implementation's
// check-then-act window let concurrent requesters simulate the same
// configuration twice. Run under -race this also validates the latch's
// publication ordering.
func TestRunnerSingleFlight(t *testing.T) {
	r := NewRunner(Options{
		Scale:       64,
		WarmupRefs:  5_000,
		MeasureRefs: 10_000,
		Seed:        1,
		Parallel:    8,
	})
	const callers = 16
	results := make([]core.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				results[i], errs[i] = r.RunIsolation(workload.TPCH, 4, sched.Affinity)
				return
			}
			res, err := r.RunConfigs([]core.Config{r.isolationConfig(workload.TPCH, 4, sched.Affinity)})
			results[i], errs[i] = res[0], err
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
	if n := r.Sims(); n != 1 {
		t.Fatalf("Sims = %d after %d concurrent identical requests, want 1", n, callers)
	}
}

// TestRunnerParallelMatchesSerial verifies that parallel scheduling is
// purely a wall-time optimization: every simulation is single-threaded
// and deterministic, so a Parallel: 8 batch must produce tables
// bit-identical to a Parallel: 1 run of the same suite.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two full figure batches")
	}
	opts := Options{
		Scale:       64,
		WarmupRefs:  8_000,
		MeasureRefs: 15_000,
		Seed:        1,
	}
	ids := []string{"T2", "F2", "F12"}

	serialOpts := opts
	serialOpts.Parallel = 1
	serial, err := NewRunner(serialOpts).RunFigures(ids...)
	if err != nil {
		t.Fatal(err)
	}

	parOpts := opts
	parOpts.Parallel = 8
	parallel, err := NewRunner(parOpts).RunFigures(ids...)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel figure batch differs from serial batch")
	}
}

// TestRunFiguresDeduplicates runs a figure batch whose members share
// isolation baselines and asserts (a) a repeat of the batch re-simulates
// nothing and (b) the parallel batch does exactly as much real work as a
// serial runner producing the same figures — i.e. concurrency introduces
// no duplicate executions.
func TestRunFiguresDeduplicates(t *testing.T) {
	opts := Options{
		Scale:       64,
		WarmupRefs:  5_000,
		MeasureRefs: 10_000,
		Seed:        1,
	}
	ids := []string{"F2", "F3"} // both lean on the same isolation baselines

	parOpts := opts
	parOpts.Parallel = 8
	rp := NewRunner(parOpts)
	if _, err := rp.RunFigures(ids...); err != nil {
		t.Fatal(err)
	}
	first := rp.Sims()
	if _, err := rp.RunFigures(ids...); err != nil {
		t.Fatal(err)
	}
	if again := rp.Sims(); again != first {
		t.Fatalf("repeat batch re-simulated: %d -> %d", first, again)
	}

	serOpts := opts
	serOpts.Parallel = 1
	rs := NewRunner(serOpts)
	if _, err := rs.RunFigures(ids...); err != nil {
		t.Fatal(err)
	}
	if rs.Sims() != first {
		t.Fatalf("parallel batch executed %d sims, serial executed %d", first, rs.Sims())
	}
}

// TestRunFiguresValidatesIDs rejects unknown figure IDs up front.
func TestRunFiguresValidatesIDs(t *testing.T) {
	r := NewRunner(Options{Scale: 64, WarmupRefs: 1_000, MeasureRefs: 2_000})
	if _, err := r.RunFigures("T2", "F99"); err == nil {
		t.Fatal("unknown figure ID accepted")
	}
	if n := r.Sims(); n != 0 {
		t.Fatalf("validation failure still simulated %d configs", n)
	}
}

// TestParallelDefaultsToGOMAXPROCS checks the Options defaulting chain.
func TestParallelDefaultsToGOMAXPROCS(t *testing.T) {
	r := NewRunner(Options{Scale: 64})
	if r.Options().Parallel < 1 {
		t.Fatalf("Parallel defaulted to %d", r.Options().Parallel)
	}
	forced := NewRunner(Options{Scale: 64, Parallel: 1})
	if forced.Options().Parallel != 1 {
		t.Fatalf("explicit Parallel: 1 overridden to %d", forced.Options().Parallel)
	}
}

// TestFigureBatchesHoldEveryRun pins two things about how a figure is
// built. Its simulation count is what it always was: naming the
// isolation references in the batch must not add work. And every run
// the table reads is in that batch: the getters the assembly loop uses
// cannot simulate (they panic on a run named after the batch ran — see
// below), so a figure that assembles at all started nothing after its batch
// returned. Before, the references ran one at a time after the pool had
// drained: 12 of F8's 27 simulations.
func TestFigureBatchesHoldEveryRun(t *testing.T) {
	want := map[string]uint64{
		"T2": 4, "F2": 32, "F3": 32, "F4": 48, "F5": 24, "F6": 24, "F7": 24,
		"F8": 27, "F9": 24, "F10": 24, "F11": 33, "F12": 16, "F13": 9,
	}
	ids := FigureIDs()
	if testing.Short() {
		ids = []string{"F6", "F8"}
	}
	for _, id := range ids {
		opts := Options{Scale: 64, WarmupRefs: 500, MeasureRefs: 1_000, Seed: 1, Parallel: 4}
		r := NewRunner(opts)
		par, err := r.RunFigure(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Sims(); got != want[id] {
			t.Errorf("%s ran %d simulations at Parallel 4, want %d", id, got, want[id])
		}
		opts.Parallel = 1
		rs := NewRunner(opts)
		ser, err := rs.RunFigure(id)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Sims() != want[id] || !reflect.DeepEqual(par, ser) {
			t.Errorf("%s: serial runner ran %d simulations (want %d) or built another table", id, rs.Sims(), want[id])
		}
	}

	r := NewRunner(Options{Scale: 64, WarmupRefs: 500, MeasureRefs: 1_000, Seed: 1, Parallel: 4})
	b := r.newBatch()
	iso4 := b.iso4(workload.TPCH)
	if err := b.run(); err != nil {
		t.Fatal(err)
	}
	if b.vm(iso4).Stats.Refs == 0 {
		t.Error("batch returned an empty result for the run it named")
	}
	late := b.baseline(workload.TPCH)
	defer func() {
		if recover() == nil || r.Sims() != 1 {
			t.Errorf("reading a run named after the batch ran did not panic, or simulated (%d sims)", r.Sims())
		}
	}()
	b.vm(late)
}

// TestRunKeyCoversEveryConfigField perturbs every field of core.Config —
// into each workload spec and its phases, the memory controllers and
// the sampling settings — and requires each change to move the memo
// key: a field the key cannot see would let two different machines
// share one result. Obs (instrumentation) and Sources (never memoized)
// are the two exceptions. Two equal configurations built separately must
// share a key.
func TestRunKeyCoversEveryConfigField(t *testing.T) {
	specs := workload.Specs()
	build := func() core.Config {
		cfg := core.DefaultConfig(specs[workload.TPCW], specs[workload.TPCH])
		cfg.QoSShares = []int{1, 2}
		cfg.Workloads[0].Phases = []workload.Phase{{Name: "p", Refs: 1}}
		return cfg
	}
	cfg, twin := build(), build()
	want, ok := configKeyOf(&cfg)
	if got, _ := configKeyOf(&twin); !ok || got != want {
		t.Fatal("two equal configs built separately do not share a key")
	}

	fields := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			if name == "Obs" || name == "Sources" {
				continue
			}
			if !f.CanSet() {
				t.Errorf("%s is unexported: the memo key cannot see it", name)
				continue
			}
			if f.Kind() == reflect.Struct {
				walk(f, name+".")
				continue
			}
			if f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Struct {
				for j := 0; j < f.Len(); j++ {
					walk(f.Index(j), fmt.Sprintf("%s[%d].", name, j))
				}
			}
			old := reflect.New(f.Type()).Elem()
			old.Set(f)
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.5)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.String:
				f.SetString(f.String() + "x")
			case reflect.Slice:
				f.Set(reflect.Append(f.Slice3(0, f.Len(), f.Len()), reflect.Zero(f.Type().Elem())))
			default:
				t.Errorf("%s: no perturbation for kind %s", name, f.Kind())
				continue
			}
			if got, ok := configKeyOf(&cfg); !ok || got == want {
				t.Errorf("changing %s left the memo key unchanged", name)
			}
			f.Set(old)
			fields++
		}
	}
	walk(reflect.ValueOf(&cfg).Elem(), "")
	if got, _ := configKeyOf(&cfg); got != want {
		t.Fatal("restoring every field did not restore the key")
	}
	t.Logf("%d fields perturbed", fields)
}

// TestRunConfigsDuplicateSimulatesOnce runs a batch that names one
// configuration twice: both slots get the same result, and Sims counts
// the configuration once, serially and in parallel.
func TestRunConfigsDuplicateSimulatesOnce(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		r := NewRunner(Options{Scale: 64, WarmupRefs: 500, MeasureRefs: 1_000, Seed: 1, Parallel: parallel})
		tpch := r.isolationConfig(workload.TPCH, 4, sched.Affinity)
		tpcw := r.isolationConfig(workload.TPCW, 4, sched.Affinity)
		res, err := r.RunConfigs([]core.Config{tpch, tpcw, r.isolationConfig(workload.TPCH, 4, sched.Affinity)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[0], res[2]) || reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("parallel %d: duplicate slots differ, or distinct configs agree", parallel)
		}
		if r.Sims() != 2 {
			t.Errorf("parallel %d: %d simulations for 2 distinct configs", parallel, r.Sims())
		}
	}
}

// TestRunConfigsNeverMemoizesSources runs two equal configurations that
// replay a recorded stream: a source is stateful, so each simulates.
func TestRunConfigsNeverMemoizesSources(t *testing.T) {
	r := NewRunner(Options{Scale: 64, WarmupRefs: 500, MeasureRefs: 1_000, Seed: 1, Parallel: 1})
	spec := workload.Specs()[workload.TPCH].Scaled(64)
	cfgs := make([]core.Config, 2)
	for i := range cfgs {
		cfgs[i] = r.config([]workload.Spec{spec}, 4, sched.Affinity)
		cfgs[i].Scale = 1 // spec pre-scaled
		cfgs[i].Sources = []workload.Source{workload.NewGenerator(spec, 4, 42)}
	}
	if _, err := r.RunConfigs(cfgs); err != nil {
		t.Fatal(err)
	}
	if r.Sims() != 2 || len(r.cache) != 0 {
		t.Errorf("%d simulations and %d memo entries for two source-driven configs, want 2 and 0", r.Sims(), len(r.cache))
	}
}
