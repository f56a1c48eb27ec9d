package sim_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"consim/internal/sim"
	"consim/internal/workload"
)

type zipfKey struct {
	n     uint64
	theta float64
}

// workloadZipfKeys lists the (n, theta) pairs the workload generators ask
// for at scales 1 and 16 with four threads per VM (each class's private
// and shared hot sets), plus one theta == 1 pair.
func workloadZipfKeys() []zipfKey {
	var keys []zipfKey
	for _, scale := range []int{1, 16} {
		for _, spec := range workload.Specs() {
			s := spec.Scaled(scale)
			keys = append(keys,
				zipfKey{uint64(s.HotBlocksPriv), s.ThetaPriv},
				zipfKey{uint64(s.SharedHotBlocks), s.ThetaShared})
		}
	}
	return append(keys, zipfKey{4096, 1})
}

// buildTheta is the skew buildZipf sees for a NewZipf argument.
func buildTheta(theta float64) float64 {
	if theta == 1 {
		return 0.999
	}
	return theta
}

// TestZipfMemoMatchesFreshBuild: a shared table equals a table built from
// scratch slot for slot, and asking again returns the same table.
func TestZipfMemoMatchesFreshBuild(t *testing.T) {
	for _, k := range workloadZipfKeys() {
		z := sim.NewZipf(k.n, k.theta)
		if fresh := sim.BuildZipf(k.n, buildTheta(k.theta)); !reflect.DeepEqual(z, fresh) {
			t.Errorf("NewZipf(%d, %v) differs from a fresh build", k.n, k.theta)
		}
		if again := sim.NewZipf(k.n, k.theta); again != z {
			t.Errorf("NewZipf(%d, %v) built a second table", k.n, k.theta)
		}
	}
}

// TestZipfMemoCoversWorkloadSpecs: workloadZipfKeys is the whole set the
// generators use, so the other memo tests cover every table a simulation
// at scale 1 or 16 shares.
func TestZipfMemoCoversWorkloadSpecs(t *testing.T) {
	for _, k := range workloadZipfKeys() {
		sim.NewZipf(k.n, k.theta)
	}
	before := sim.ZipfMemoLen()
	for _, scale := range []int{1, 16} {
		for _, spec := range workload.Specs() {
			workload.NewGenerator(spec.Scaled(scale), 4, 1)
			if got := sim.ZipfMemoLen(); got != before {
				t.Fatalf("%s at scale %d added %d tables the key list does not name",
					spec.Name, scale, got-before)
			}
		}
	}
}

// TestZipfThetaOneSharesEntry: theta == 1 is remapped before the memo is
// keyed, so it and 0.999 are one entry.
func TestZipfThetaOneSharesEntry(t *testing.T) {
	n := freshN()
	before := sim.ZipfMemoLen()
	one := sim.NewZipf(n, 1)
	if remapped := sim.NewZipf(n, 0.999); remapped != one {
		t.Error("NewZipf(n, 1) and NewZipf(n, 0.999) returned different tables")
	}
	if grew := sim.ZipfMemoLen() - before; grew != 1 {
		t.Errorf("memo grew by %d entries, want 1", grew)
	}
}

var freshKeys atomic.Uint64

// freshN returns a range no other call or test in the package uses, so
// the key it is part of is cold on every run, -count included.
func freshN() uint64 { return 50_000 + freshKeys.Add(1) }

// TestZipfMemoConcurrent: goroutines asking for one key at once all get
// the one stored table, sample it side by side, and it equals a fresh
// build. Run it under -race.
func TestZipfMemoConcurrent(t *testing.T) {
	const goroutines = 8
	n := freshN()
	got := make([]*sim.Zipf, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			z := sim.NewZipf(n, 0.73)
			r := sim.NewRNG(uint64(i))
			for j := 0; j < 1000; j++ {
				if v := z.Sample(r); v >= n {
					t.Errorf("goroutine %d: sample %d out of range %d", i, v, n)
					return
				}
			}
			got[i] = z
		}()
	}
	start.Done()
	done.Wait()
	for i, z := range got {
		if z != got[0] {
			t.Errorf("goroutine %d got a different table than goroutine 0", i)
		}
	}
	if !reflect.DeepEqual(got[0], sim.BuildZipf(n, 0.73)) {
		t.Error("shared table differs from a fresh build")
	}
}
