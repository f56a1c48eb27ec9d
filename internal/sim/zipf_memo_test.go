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

// TestZipfStreamPinned pins the draws themselves: 10^6 Samples of every
// workload class's private and shared table at scales 1 and 16, each
// from its own fixed seed, fold to FNV-1a digests recorded before the
// alias slot was repacked to 12 bytes. A layout change to the table
// must leave every draw, not just its distribution, unchanged.
func TestZipfStreamPinned(t *testing.T) {
	want := []uint64{ // workloadZipfKeys order, theta == 1 pair dropped
		0xff72333482af6f51, 0xd04538724ebba10b, 0xb861d96148a5a497, 0x026fca6e3827431f,
		0x2cac35b8ce4a76ae, 0xe53b06e7c6bc6af9, 0x7c9721efa07336b4, 0xfd48cb2badee2e2b,
		0x55f219c089fe78c1, 0x4fa4726d7136971a, 0xf39b94e2ba343bc0, 0x5fb9b91b6a51141e,
		0x111b2d5b805720ec, 0x52c27bdc053792e1, 0xe86584aec93cef56, 0xa9593432591a0ae9,
	}
	keys := workloadZipfKeys()
	keys = keys[:len(keys)-1]
	if len(keys) != len(want) {
		t.Fatalf("%d workload tables, %d recorded digests", len(keys), len(want))
	}
	for i, k := range keys {
		z, r := sim.NewZipf(k.n, k.theta), sim.NewRNG(uint64(i)+1)
		h := uint64(0xcbf29ce484222325)
		for j := 0; j < 1_000_000; j++ {
			h = (h ^ z.Sample(r)) * 0x100000001b3
		}
		if h != want[i] {
			t.Errorf("NewZipf(%d, %v): draw digest %#x, want %#x", k.n, k.theta, h, want[i])
		}
	}
}
