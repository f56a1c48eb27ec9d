package harness

import (
	"reflect"
	"sync"
	"testing"

	"consim/internal/core"
	"consim/internal/sched"
	"consim/internal/workload"
)

// TestRunnerSingleFlight hammers one runKey from many goroutines and
// asserts exactly one simulation executed — the seed implementation's
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
			results[i], errs[i] = r.RunIsolation(workload.TPCH, 4, sched.Affinity)
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
// cannot simulate (they panic on a run nobody named — see below), so a
// figure that assembles at all started nothing after its batch
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
	b.iso(workload.TPCH, 4, sched.Affinity)
	if err := b.run(); err != nil {
		t.Fatal(err)
	}
	if b.iso4Res(workload.TPCH).Stats.Refs == 0 {
		t.Error("batch returned an empty result for the run it named")
	}
	defer func() {
		if recover() == nil || r.Sims() != 1 {
			t.Errorf("reading a run the batch never named did not panic, or simulated (%d sims)", r.Sims())
		}
	}()
	b.baselineRes(workload.TPCH)
}
