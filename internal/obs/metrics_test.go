package obs

import (
	"sync"
	"testing"
)

func TestRegistryAggregatesAcrossShards(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterID("c")
	g := reg.GaugeID("g")
	a, b := reg.NewShard(), reg.NewShard()
	a.Add(c, 3)
	b.Add(c, 4)
	a.Set(g, 10)
	b.Set(g, 5)
	if got := reg.Value(c); got != 7 {
		t.Errorf("counter sum = %d, want 7", got)
	}
	if got := reg.Value(g); got != 15 {
		t.Errorf("gauge sum = %d, want 15", got)
	}
}

func TestRegistryReRegisterReturnsSameID(t *testing.T) {
	reg := NewRegistry()
	if reg.CounterID("x") != reg.CounterID("x") {
		t.Error("re-registration returned a new ID")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	reg.GaugeID("x")
}

func TestRegistrationAfterFreezePanics(t *testing.T) {
	reg := NewRegistry()
	reg.CounterID("x")
	reg.NewShard()
	defer func() {
		if recover() == nil {
			t.Error("post-freeze registration did not panic")
		}
	}()
	reg.CounterID("y")
}

// TestConcurrentShardsSumExactly is the -race exercise: many goroutines
// write their own shards while a reader polls aggregates, then the final
// sums must be exact.
func TestConcurrentShardsSumExactly(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterID("refs")
	g := reg.GaugeID("entries")

	const workers = 8
	const perWorker = 10_000
	shards := make([]*Shard, workers)
	for i := range shards {
		shards[i] = reg.NewShard()
	}

	done := make(chan struct{})
	go func() { // concurrent reader: values must only be racefree, not exact
		for {
			select {
			case <-done:
				return
			default:
				reg.Value(c)
				reg.Value(g)
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(sh *Shard) {
			defer wg.Done()
			for j := 1; j <= perWorker; j++ {
				sh.Add(c, 1)
				sh.Set(g, uint64(j))
			}
		}(shards[i])
	}
	wg.Wait()
	close(done)

	if got := reg.Value(c); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Value(g); got != workers*perWorker {
		t.Errorf("gauge sum = %d, want each shard's last publish summed, %d", got, workers*perWorker)
	}
}

func TestShardHotPathAllocationFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterID("c")
	g := reg.GaugeID("g")
	sh := reg.NewShard()
	allocs := testing.AllocsPerRun(1000, func() {
		sh.Add(c, 1)
		sh.Set(g, 42)
	})
	if allocs != 0 {
		t.Errorf("shard writes allocate: %v allocs/run", allocs)
	}
}
