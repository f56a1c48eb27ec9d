package harness

import (
	"fmt"

	"consim/internal/core"
	"consim/internal/sched"
	"consim/internal/workload"
)

// This file holds one runner per artifact of the paper's evaluation
// section. Each returns a Table whose rows/columns mirror the published
// figure. Normalizations follow §V:
//
//   - performance   = cycles-per-transaction, normalized to the same
//     workload isolated on 4 cores with the whole LLC fully shared;
//   - miss rate     = per-VM LLC misses / references (relative variants
//     normalize to the isolation baseline);
//   - miss latency  = mean cycles to satisfy a private-cache miss
//     (relative variants normalize to isolation / affinity / shared-4).

// isoPolicies are the two policies the isolation figures sweep.
var isoPolicies = []sched.Policy{sched.RoundRobin, sched.Affinity}

// batch is the set of simulations one figure reads. The figure names
// every run up front — the sweep's cells and the isolation references it
// normalizes by alike — run puts them through the worker pool together,
// and the table is assembled from the results alone. The getters do not
// simulate: a run the figure forgot to name is a bug in the figure and
// panics, where it used to execute quietly, one at a time, after the
// pool had drained (12 of F8's 27 simulations ran that way).
type batch struct {
	r    *Runner
	keys []runKey
	cfgs []core.Config
	res  map[runKey]core.Result
}

func (r *Runner) newBatch() *batch {
	return &batch{r: r, res: make(map[runKey]core.Result)}
}

func (b *batch) add(key runKey, cfg core.Config) {
	if _, dup := b.res[key]; !dup {
		b.res[key] = core.Result{}
		b.keys, b.cfgs = append(b.keys, key), append(b.cfgs, cfg)
	}
}

// iso and mix name an isolation run and a Table IV mix run.
func (b *batch) iso(class workload.Class, groupSize int, p sched.Policy) {
	b.add(b.r.isolationJob(class, groupSize, p))
}

func (b *batch) mix(m Mix, groupSize int, p sched.Policy) {
	b.add(b.r.mixJob(m, groupSize, p))
}

// baseline and iso4 name the two isolation references of §V: the fully
// shared LLC (performance, miss rate) and shared-4-way under affinity
// (miss latency).
func (b *batch) baseline(class workload.Class) { b.iso(class, core.DefaultCores, sched.Affinity) }
func (b *batch) iso4(class workload.Class)     { b.iso(class, 4, sched.Affinity) }

// run executes (or recalls) every named simulation.
func (b *batch) run() error {
	out := make([]core.Result, len(b.keys))
	err := b.r.parallelDo(len(b.keys), func(i int) (err error) {
		out[i], err = b.r.run(b.keys[i], b.cfgs[i])
		return err
	})
	for i, key := range b.keys {
		b.res[key] = out[i]
	}
	return err
}

func (b *batch) get(key runKey) core.Result {
	res, ok := b.res[key]
	if !ok {
		panic(fmt.Sprintf("harness: figure reads a run its batch never named: %+v", key))
	}
	return res
}

func (b *batch) isoRes(class workload.Class, groupSize int, p sched.Policy) core.Result {
	return b.get(isolationKey(class, groupSize, p))
}

func (b *batch) mixRes(m Mix, groupSize int, p sched.Policy) core.Result {
	return b.get(mixKey(m, groupSize, p))
}

func (b *batch) baselineRes(class workload.Class) core.VMResult {
	return b.isoRes(class, core.DefaultCores, sched.Affinity).VMs[0]
}

func (b *batch) iso4Res(class workload.Class) core.VMResult {
	return b.isoRes(class, 4, sched.Affinity).VMs[0]
}

// TableII reproduces Table II: per-workload cache-to-cache transfer
// statistics and footprint, measured in isolation on private LLCs.
func (r *Runner) TableII() (*Table, error) {
	t := &Table{
		ID:      "T2",
		Title:   "Workload statistics (isolated, private LLCs)",
		RowHead: "workload",
		Columns: []string{"c2c all", "c2c clean", "c2c dirty", "blocks (K)"},
	}
	targets := workload.TableII()
	b := r.newBatch()
	for _, class := range workload.All() {
		b.iso(class, 1, sched.Affinity)
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	for _, class := range workload.All() {
		v := b.isoRes(class, 1, sched.Affinity).VMs[0]
		dirty := v.Stats.C2CDirtyShare()
		t.Add(class.String(),
			v.Stats.C2COfLLCMisses(), 1-dirty, dirty,
			float64(v.TouchedBlocks)/1000)
		tg := targets[class]
		t.Note("%s paper: all=%.2f clean=%.2f dirty=%.2f blocks=%dK",
			class, tg.C2CAll, tg.C2CClean, tg.C2CDirty, tg.BlocksK)
	}
	return t, nil
}

// isolationSweep runs every (workload, groupSize, policy) combination and
// fills a table via value().
func (r *Runner) isolationSweep(id, title string, groupSizes []int, policies []sched.Policy,
	value func(v core.VMResult, base core.VMResult) float64) (*Table, error) {

	t := &Table{ID: id, Title: title, RowHead: "workload"}
	for _, gs := range groupSizes {
		for _, p := range policies {
			t.Columns = append(t.Columns, fmt.Sprintf("%s/%s", groupSizeName(gs), p))
		}
	}
	b := r.newBatch()
	for _, class := range workload.All() {
		b.baseline(class)
		for _, gs := range groupSizes {
			for _, p := range policies {
				b.iso(class, gs, p)
			}
		}
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	for _, class := range workload.All() {
		base := b.baselineRes(class)
		var vals []float64
		for _, gs := range groupSizes {
			for _, p := range policies {
				vals = append(vals, value(b.isoRes(class, gs, p).VMs[0], base))
			}
		}
		t.Add(class.String(), vals...)
	}
	return t, nil
}

// Fig2 reproduces Figure 2: isolated-workload performance across LLC
// organizations and scheduling policies, normalized to the fully-shared
// baseline.
func (r *Runner) Fig2() (*Table, error) {
	t, err := r.isolationSweep("F2", "Isolated workload performance (normalized runtime; 1.0 = fully shared)",
		[]int{core.DefaultCores, 8, 4, 1}, isoPolicies,
		func(v, base core.VMResult) float64 { return v.CyclesPerTx / base.CyclesPerTx })
	if err != nil {
		return nil, err
	}
	t.Note("higher = slower; paper: performance degrades as per-thread LLC share shrinks, worst for TPC-W")
	return t, nil
}

// Fig3 reproduces Figure 3: isolated-workload LLC miss rates for the same
// sweep as Figure 2.
func (r *Runner) Fig3() (*Table, error) {
	t, err := r.isolationSweep("F3", "Isolated workload LLC miss rates (misses per reference)",
		[]int{core.DefaultCores, 8, 4, 1}, isoPolicies,
		func(v, _ core.VMResult) float64 { return v.MissRate() })
	if err != nil {
		return nil, err
	}
	t.Note("paper: misses grow as capacity seen by each thread decreases; RR replicates read-shared data")
	return t, nil
}

// Fig4 reproduces Figure 4: isolated-workload average miss latencies for
// shared, shared-4-way and private LLCs under all four policies.
func (r *Runner) Fig4() (*Table, error) {
	return r.isolationSweep("F4", "Isolated workload miss latency (cycles per private-cache miss)",
		[]int{core.DefaultCores, 4, 1}, sched.All(),
		func(v, _ core.VMResult) float64 { return v.AvgMissLatency() })
}

// homogeneousSweep runs Mixes A-D under every policy on shared-4-way
// caches and fills a table via value().
func (r *Runner) homogeneousSweep(id, title string,
	value func(v core.VMResult, iso, iso4aff core.VMResult) float64) (*Table, error) {

	t := &Table{ID: id, Title: title, RowHead: "mix"}
	for _, p := range sched.All() {
		t.Columns = append(t.Columns, p.String())
	}
	mixes := HomogeneousMixes()
	b := r.newBatch()
	for _, mix := range mixes {
		b.baseline(mix.Classes[0])
		b.iso4(mix.Classes[0])
		for _, p := range sched.All() {
			b.mix(mix, 4, p)
		}
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	for _, mix := range mixes {
		class := mix.Classes[0]
		iso, iso4 := b.baselineRes(class), b.iso4Res(class)
		var vals []float64
		for _, p := range sched.All() {
			res := b.mixRes(mix, 4, p)
			sum := 0.0
			for _, v := range res.VMs {
				sum += value(v, iso, iso4)
			}
			vals = append(vals, sum/float64(len(res.VMs)))
		}
		t.Add(fmt.Sprintf("%s %s", mix.ID, class), vals...)
	}
	return t, nil
}

// Fig5 reproduces Figure 5: homogeneous-mix performance per policy,
// relative to isolation.
func (r *Runner) Fig5() (*Table, error) {
	t, err := r.homogeneousSweep("F5", "Homogeneous mixes: normalized runtime vs isolation (shared-4-way)",
		func(v, iso, _ core.VMResult) float64 { return v.CyclesPerTx / iso.CyclesPerTx })
	if err != nil {
		return nil, err
	}
	t.Note("paper: affinity is the best policy; SPECjbb and SPECweb degrade most under round robin")
	return t, nil
}

// Fig6 reproduces Figure 6: homogeneous-mix miss latency per policy,
// normalized to the workload isolated with affinity scheduling.
func (r *Runner) Fig6() (*Table, error) {
	t, err := r.homogeneousSweep("F6", "Homogeneous mixes: miss latency vs isolation/affinity",
		func(v, _, iso4 core.VMResult) float64 { return v.AvgMissLatency() / iso4.AvgMissLatency() })
	if err != nil {
		return nil, err
	}
	t.Note("paper: TPC-W shows the greatest miss-latency increase going from isolated to mixed")
	return t, nil
}

// Fig7 reproduces Figure 7: homogeneous-mix miss rates relative to
// isolation.
func (r *Runner) Fig7() (*Table, error) {
	return r.homogeneousSweep("F7", "Homogeneous mixes: LLC miss rate vs isolation",
		func(v, iso, _ core.VMResult) float64 { return v.MissRate() / iso.MissRate() })
}

// heterogeneousSweep runs Mixes 1-9 on shared-4-way under the given
// policies, grouping results per (mix, workload). b is the figure's
// batch, already holding whatever else the caller will read; the sweep
// adds its own runs to it and executes it.
func (r *Runner) heterogeneousSweep(b *batch, id, title string, policies []sched.Policy, groupSizes []int,
	value func(v core.VMResult, iso, iso4aff core.VMResult) float64) (*Table, error) {

	t := &Table{ID: id, Title: title, RowHead: "mix/workload"}
	for _, gs := range groupSizes {
		for _, p := range policies {
			label := p.String()
			if len(groupSizes) > 1 {
				label = fmt.Sprintf("shared-%d/%s", gs, p)
			}
			t.Columns = append(t.Columns, label)
		}
	}
	mixes := HeterogeneousMixes()
	for _, mix := range mixes {
		for _, class := range mix.Classes {
			b.baseline(class)
			b.iso4(class)
		}
		for _, gs := range groupSizes {
			for _, p := range policies {
				b.mix(mix, gs, p)
			}
		}
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	for _, mix := range mixes {
		// One row per distinct workload in the mix, averaging instances.
		seen := map[workload.Class]bool{}
		for _, class := range mix.Classes {
			if seen[class] {
				continue
			}
			seen[class] = true
			iso, iso4 := b.baselineRes(class), b.iso4Res(class)
			var vals []float64
			for _, gs := range groupSizes {
				for _, p := range policies {
					sum, n := 0.0, 0
					for _, v := range b.mixRes(mix, gs, p).ByClass(class) {
						sum += value(v, iso, iso4)
						n++
					}
					vals = append(vals, sum/float64(n))
				}
			}
			t.Add(fmt.Sprintf("%s %s", mix.ID, class), vals...)
		}
	}
	return t, nil
}

// Fig8 reproduces Figure 8: heterogeneous-mix performance relative to
// isolation, for affinity and round-robin on shared-4-way caches.
func (r *Runner) Fig8() (*Table, error) {
	// The paper also plots the isolation shared-4 references.
	var isoRows []workload.Class
	b := r.newBatch()
	for _, class := range workload.All() {
		if class == workload.SPECweb {
			continue // SPECweb joins no heterogeneous mixes
		}
		isoRows = append(isoRows, class)
		for _, p := range isoPolicies {
			b.iso(class, 4, p)
		}
	}
	t, err := r.heterogeneousSweep(b, "F8", "Heterogeneous mixes: normalized runtime vs isolation (shared-4-way)",
		isoPolicies, []int{4},
		func(v, iso, _ core.VMResult) float64 { return v.CyclesPerTx / iso.CyclesPerTx })
	if err != nil {
		return nil, err
	}
	for _, class := range isoRows {
		iso := b.baselineRes(class)
		var vals []float64
		for _, p := range isoPolicies {
			vals = append(vals, b.isoRes(class, 4, p).VMs[0].CyclesPerTx/iso.CyclesPerTx)
		}
		t.Add(fmt.Sprintf("isolation %s", class), vals...)
	}
	t.Note("paper: TPC-H is largely unaffected by co-runners; SPECjbb degrades most")
	return t, nil
}

// Fig9 reproduces Figure 9: heterogeneous-mix miss rates relative to
// isolation.
func (r *Runner) Fig9() (*Table, error) {
	t, err := r.heterogeneousSweep(r.newBatch(), "F9", "Heterogeneous mixes: LLC miss rate vs isolation (shared-4-way)",
		isoPolicies, []int{4},
		func(v, iso, _ core.VMResult) float64 { return v.MissRate() / iso.MissRate() })
	if err != nil {
		return nil, err
	}
	t.Note("paper: SPECjbb's miss rate grows sharply with TPC-W (mixes 7-9); TPC-H/affinity barely moves")
	return t, nil
}

// Fig10 reproduces Figure 10: heterogeneous-mix miss latencies normalized
// to isolation with affinity scheduling on shared-4-way caches.
func (r *Runner) Fig10() (*Table, error) {
	t, err := r.heterogeneousSweep(r.newBatch(), "F10", "Heterogeneous mixes: miss latency vs isolation/affinity/shared-4",
		isoPolicies, []int{4},
		func(v, _, iso4 core.VMResult) float64 { return v.AvgMissLatency() / iso4.AvgMissLatency() })
	if err != nil {
		return nil, err
	}
	t.Note("paper: SPECjbb's latency is least sensitive to co-runners, TPC-W's the most")
	return t, nil
}

// Fig11 reproduces Figure 11: the degree-of-sharing sweep for the
// heterogeneous mixes under affinity scheduling — miss latency for
// shared-2/-4/-8 LLCs, normalized to shared-4 isolation.
func (r *Runner) Fig11() (*Table, error) {
	t, err := r.heterogeneousSweep(r.newBatch(), "F11", "Heterogeneous mixes: miss latency vs sharing degree (affinity)",
		[]sched.Policy{sched.Affinity}, []int{2, 4, 8},
		func(v, _, iso4 core.VMResult) float64 { return v.AvgMissLatency() / iso4.AvgMissLatency() })
	if err != nil {
		return nil, err
	}
	t.Note("paper: TPC-H does best at shared-4 (a bank to itself); shared-8 flexibility helps SPECjbb")
	return t, nil
}

// Fig12 reproduces Figure 12: the fraction of resident LLC lines
// replicated in two or more banks for the homogeneous mixes, per policy,
// with the private configuration as the maximum-replication bound.
func (r *Runner) Fig12() (*Table, error) {
	policies := []sched.Policy{sched.RoundRobin, sched.RRAffinity, sched.Random}
	t := &Table{
		ID:      "F12",
		Title:   "Homogeneous mixes: replicated fraction of LLC lines (snapshot)",
		RowHead: "mix",
	}
	for _, p := range policies {
		t.Columns = append(t.Columns, p.String())
	}
	t.Columns = append(t.Columns, "private (max)")
	mixes := HomogeneousMixes()
	b := r.newBatch()
	for _, mix := range mixes {
		for _, p := range policies {
			b.mix(mix, 4, p)
		}
		b.mix(mix, 1, sched.Affinity)
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	for _, mix := range mixes {
		var vals []float64
		for _, p := range policies {
			vals = append(vals, b.mixRes(mix, 4, p).Snapshot.ReplicationFraction())
		}
		vals = append(vals, b.mixRes(mix, 1, sched.Affinity).Snapshot.ReplicationFraction())
		t.Add(fmt.Sprintf("%s %s", mix.ID, mix.Classes[0]), vals...)
	}
	t.Note("paper: round robin replicates most; SPECjbb and SPECweb replicate most among workloads")
	return t, nil
}

// Fig13 reproduces Figure 13: per-workload occupancy of each shared-4-way
// LLC bank for the heterogeneous mixes under round-robin scheduling.
func (r *Runner) Fig13() (*Table, error) {
	t := &Table{
		ID:      "F13",
		Title:   "Heterogeneous mixes: LLC occupancy share per VM (round robin, shared-4-way)",
		RowHead: "mix/bank",
		Columns: []string{"vm0", "vm1", "vm2", "vm3"},
	}
	mixes := HeterogeneousMixes()
	b := r.newBatch()
	for _, mix := range mixes {
		b.mix(mix, 4, sched.RoundRobin)
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	for _, mix := range mixes {
		res := b.mixRes(mix, 4, sched.RoundRobin)
		for g := range res.Snapshot.Occupancy {
			var vals []float64
			for v := range mix.Classes {
				vals = append(vals, res.Snapshot.OccupancyShare(g, v))
			}
			t.Add(fmt.Sprintf("%s $%d", mix.ID, g), vals...)
		}
		t.Note("%s VMs: 0..3 = %s", mix.ID, mix.Name())
	}
	t.Note("paper: TPC-H occupies less than its fair 25%% share; SPECjbb splits evenly against itself")
	return t, nil
}

// FigureIDs lists every artifact runner in publication order.
func FigureIDs() []string {
	return []string{"T2", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13"}
}

// RunFigure dispatches an artifact by ID.
func (r *Runner) RunFigure(id string) (*Table, error) {
	switch id {
	case "T2":
		return r.TableII()
	case "F2":
		return r.Fig2()
	case "F3":
		return r.Fig3()
	case "F4":
		return r.Fig4()
	case "F5":
		return r.Fig5()
	case "F6":
		return r.Fig6()
	case "F7":
		return r.Fig7()
	case "F8":
		return r.Fig8()
	case "F9":
		return r.Fig9()
	case "F10":
		return r.Fig10()
	case "F11":
		return r.Fig11()
	case "F12":
		return r.Fig12()
	case "F13":
		return r.Fig13()
	}
	return nil, fmt.Errorf("harness: unknown figure %q", id)
}

// RunFigures produces the requested artifacts, scheduling every figure's
// runs through the runner's one deduplicated work queue: figures are
// dispatched concurrently (up to Options.Parallel simulations in flight
// across the whole batch), and configurations shared between figures —
// the isolation baselines feed F2 through F7 — simulate exactly once,
// with single-flight latching instead of each figure re-deriving them.
// Tables come back in request order; IDs are validated up front.
func (r *Runner) RunFigures(ids ...string) ([]*Table, error) {
	known := make(map[string]bool, len(FigureIDs()))
	for _, id := range FigureIDs() {
		known[id] = true
	}
	for _, id := range ids {
		if !known[id] {
			return nil, fmt.Errorf("harness: unknown figure %q", id)
		}
	}
	tables := make([]*Table, len(ids))
	err := r.parallelDo(len(ids), func(i int) error {
		t, err := r.RunFigure(ids[i])
		tables[i] = t
		return err
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// RunAll produces every figure artifact through one shared work queue.
func (r *Runner) RunAll() ([]*Table, error) {
	return r.RunFigures(FigureIDs()...)
}
