package harness

// Shape tests: pin the qualitative results DESIGN.md §5 promises — who
// wins, orderings, directions — at reduced scale. They complement the
// full-scale EXPERIMENTS.md numbers.

import (
	"strings"
	"sync"
	"testing"

	"consim/internal/sched"
	"consim/internal/workload"
)

// shapeRunner is larger than testRunner: shape assertions need enough
// references for orderings to stabilize. Every shape test shares the one
// Runner, whose memo simulates a configuration once: F7 reads exactly
// F5's runs, F12's three shared-4 columns are F5's runs too, and F11's
// shared-4 column is F8's affinity cells.
var shapeRunner = sync.OnceValue(func() *Runner {
	return NewRunner(Options{
		Scale:       16,
		WarmupRefs:  40_000,
		MeasureRefs: 80_000,
		Seed:        1,
	})
})

func TestShapeAffinityBestForHomogeneousMixes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	r := shapeRunner()
	f5, err := r.fig5()
	if err != nil {
		t.Fatal(err)
	}
	// §V-B: "Affinity scheduling is the best policy".
	affCol := -1
	for i, c := range f5.Columns {
		if c == "affinity" {
			affCol = i
		}
	}
	for _, row := range f5.Rows {
		for i, v := range row.Values {
			if i == affCol {
				continue
			}
			if row.Values[affCol] > v {
				t.Errorf("%s: affinity %.3f slower than %s %.3f", row.Label, row.Values[affCol], f5.Columns[i], v)
			}
		}
	}
}

func TestShapeIsolationMissRateGradient(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	r := shapeRunner()
	f3, err := r.fig3()
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3's shape: for every workload, private misses exceed the
	// fully-shared misses by a wide margin.
	for _, row := range f3.Rows {
		shared, _ := f3.Get(row.Label, "shared/affinity")
		private, _ := f3.Get(row.Label, "private/affinity")
		if private <= shared {
			t.Errorf("%s: private miss rate %.4f not above shared %.4f", row.Label, private, shared)
		}
	}
}

func TestShapeTPCHLeastAffectedUnderAffinity(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	r := shapeRunner()
	f8, err := r.fig8()
	if err != nil {
		t.Fatal(err)
	}
	// §V-C: TPC-H is the least-degraded workload in the heterogeneous
	// mixes under affinity (its small footprint fits its own bank).
	worstTPCH, worstOther := 0.0, 0.0
	for _, row := range f8.Rows {
		if len(row.Label) >= 9 && row.Label[:9] == "isolation" {
			continue
		}
		aff, _ := f8.Get(row.Label, "affinity")
		if len(row.Label) > 6 && row.Label[len(row.Label)-5:] == "TPC-H" {
			if aff > worstTPCH {
				worstTPCH = aff
			}
		} else if aff > worstOther {
			worstOther = aff
		}
	}
	if worstTPCH >= worstOther {
		t.Errorf("TPC-H worst-case %.3f not below other workloads' %.3f", worstTPCH, worstOther)
	}
}

func TestShapeReplicationPolicyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	r := shapeRunner()
	f12, err := r.fig12()
	if err != nil {
		t.Fatal(err)
	}
	// Figure 12: round robin replicates most among the policies, and
	// the private configuration is the maximum bound.
	for _, row := range f12.Rows {
		rr, _ := f12.Get(row.Label, "rr")
		affrr, _ := f12.Get(row.Label, "aff-rr")
		private, _ := f12.Get(row.Label, "private (max)")
		if rr < affrr {
			t.Errorf("%s: rr replication %.3f below aff-rr %.3f", row.Label, rr, affrr)
		}
		// The private bound holds with tolerance at reduced scale: tiny
		// per-core banks evict replicas faster than the paper's 1MB
		// banks would.
		if private < 0.8*rr {
			t.Errorf("%s: private bound %.3f far below rr %.3f", row.Label, private, rr)
		}
	}
}

func TestShapeConsolidationRaisesMissRates(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	r := shapeRunner()
	f7, err := r.fig7()
	if err != nil {
		t.Fatal(err)
	}
	// Figure 7: competition raises every workload's miss rate above
	// isolation (all relative values > 1).
	for _, row := range f7.Rows {
		for i, v := range row.Values {
			if v <= 1 {
				t.Errorf("%s %s: relative miss rate %.3f not above isolation", row.Label, f7.Columns[i], v)
			}
		}
	}
}

func TestShapeOccupancySnapshotsConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	r := shapeRunner()
	// Figure 13's substrate: every bank's occupancy splits across
	// exactly the mix's VMs and every VM holds *some* capacity in every
	// bank under round robin (each bank hosts one thread of each VM).
	//
	// Note a deliberate divergence from the paper here, recorded in
	// EXPERIMENTS.md: the paper's Figure 13 shows TPC-H *below* its fair
	// share, while this model's TPC-H holds slightly more — its faster
	// threads (kept running by the "restart to keep the system at
	// capacity" methodology) insert lines at a higher per-cycle rate.
	mix, _ := MixByID("1")
	res, err := r.RunMix(mix, 4, sched.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	for g := range res.Snapshot.Occupancy {
		for v := range mix.Classes {
			if res.Snapshot.OccupancyShare(g, v) <= 0 {
				t.Errorf("bank %d: vm %d holds nothing", g, v)
			}
		}
	}
	_ = workload.TPCH
	_ = sched.RoundRobin
}

func TestShapeF11ColumnStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	r := shapeRunner()
	f11, err := r.fig11()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"shared-2/affinity", "shared-4/affinity", "shared-8/affinity"}
	if len(f11.Columns) != len(want) {
		t.Fatalf("F11 columns = %v", f11.Columns)
	}
	for i, c := range want {
		if f11.Columns[i] != c {
			t.Errorf("F11 column %d = %q, want %q", i, f11.Columns[i], c)
		}
	}
	// 18 rows: two distinct workloads per heterogeneous mix.
	if len(f11.Rows) != 18 {
		t.Errorf("F11 rows = %d", len(f11.Rows))
	}
	// The paper's crossover: TPC-H rows have their minimum at shared-4
	// (column 1), never at shared-2.
	for _, row := range f11.Rows {
		if !strings.HasSuffix(row.Label, "TPC-H") {
			continue
		}
		if row.Values[0] <= row.Values[1] {
			t.Errorf("%s: shared-2 (%.3f) not worse than shared-4 (%.3f)", row.Label, row.Values[0], row.Values[1])
		}
	}
}
