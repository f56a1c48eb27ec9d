package harness

import (
	"fmt"
	"reflect"
	"testing"

	"consim/internal/core"
	"consim/internal/obs"
	"consim/internal/sched"
	"consim/internal/workload"
)

// simMetricIDs returns every series of the standard schema, by field
// name (array elements as name[i]).
func simMetricIDs(m *obs.SimMetrics) map[string]obs.ID {
	ids := map[string]obs.ID{}
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if f.Kind() != reflect.Array {
			ids[name] = f.Interface().(obs.ID)
			continue
		}
		for j := 0; j < f.Len(); j++ {
			ids[fmt.Sprintf("%s[%d]", name, j)] = f.Index(j).Interface().(obs.ID)
		}
	}
	return ids
}

// TestEverySeriesPublished runs an observed batch — one sequential and
// one sampled configuration at scale 16 — and checks that every series
// the registry holds was published: a series nothing writes is a series
// nothing should register.
func TestEverySeriesPublished(t *testing.T) {
	specs := workload.Specs()
	seq := core.DefaultConfig(specs[workload.TPCW], specs[workload.SPECjbb], specs[workload.TPCH], specs[workload.SPECweb])
	// Round-robin spreads each VM over the groups, so lines move between
	// banks and both kinds of cache-to-cache transfer happen.
	seq.Scale, seq.GroupSize, seq.Policy = 16, 4, sched.RoundRobin
	seq.WarmupRefs, seq.MeasureRefs = 20_000, 20_000
	sampled := seq
	sampled.Sample = core.SampleConfig{WindowRefs: 2_000, CITarget: 0.5}

	o := obs.NewObserver(nil, nil, nil)
	r := NewRunner(Options{Scale: 16, Parallel: 1, Obs: o})
	if _, err := r.RunConfigs([]core.Config{seq, sampled}); err != nil {
		t.Fatal(err)
	}
	ids := simMetricIDs(o.Sim)
	if len(ids) != 27 {
		t.Errorf("schema has %d series, want 27", len(ids))
	}
	seen := map[obs.ID]bool{}
	for name, id := range ids {
		if seen[id] {
			t.Errorf("%s shares ID %d with another series", name, id)
		}
		seen[id] = true
		if o.Reg.Value(id) == 0 {
			t.Errorf("%s was never published", name)
		}
	}
}
