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
// normalizes by alike — and keeps the handle each name returns; run puts
// them through RunConfigs together, and the table is assembled from the
// results alone. The getters do not simulate: a run named after the
// batch ran is a bug in the figure and panics, rather than executing
// alone after the pool has drained.
type batch struct {
	r    *Runner
	cfgs []core.Config
	res  []core.Result
}

func (r *Runner) newBatch() *batch { return &batch{r: r} }

// add names one simulation and returns its handle.
func (b *batch) add(cfg core.Config) int {
	b.cfgs = append(b.cfgs, cfg)
	return len(b.cfgs) - 1
}

// iso and mix name an isolation run and a Table IV mix run.
func (b *batch) iso(class workload.Class, groupSize int, p sched.Policy) int {
	return b.add(b.r.isolationConfig(class, groupSize, p))
}

func (b *batch) mix(m Mix, groupSize int, p sched.Policy) int {
	return b.add(b.r.mixConfig(m, groupSize, p))
}

// baseline and iso4 name the two isolation references of §V: the fully
// shared LLC (performance, miss rate) and shared-4-way under affinity
// (miss latency).
func (b *batch) baseline(class workload.Class) int {
	return b.iso(class, core.DefaultCores, sched.Affinity)
}

func (b *batch) iso4(class workload.Class) int { return b.iso(class, 4, sched.Affinity) }

// run executes (or recalls) every named simulation.
func (b *batch) run() (err error) {
	b.res, err = b.r.RunConfigs(b.cfgs)
	return err
}

// get returns the result of the run handle h names.
func (b *batch) get(h int) core.Result {
	if h >= len(b.res) {
		panic(fmt.Sprintf("harness: figure reads a run its batch never ran: %s", b.cfgs[h].Label()))
	}
	return b.res[h]
}

// vm returns the one VM of the isolation run handle h names.
func (b *batch) vm(h int) core.VMResult { return b.get(h).VMs[0] }

// tableII reproduces Table II: per-workload cache-to-cache transfer
// statistics and footprint, measured in isolation on private LLCs.
func (r *Runner) tableII() (*Table, error) {
	t := &Table{
		ID:      "T2",
		Title:   "Workload statistics (isolated, private LLCs)",
		RowHead: "workload",
		Columns: []string{"c2c all", "c2c clean", "c2c dirty", "blocks (K)"},
	}
	targets := workload.TableII()
	classes := workload.All()
	b := r.newBatch()
	runs := make([]int, len(classes))
	for i, class := range classes {
		runs[i] = b.iso(class, 1, sched.Affinity)
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	for i, class := range classes {
		v := b.vm(runs[i])
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
	classes := workload.All()
	b := r.newBatch()
	base := make([]int, len(classes))
	cells := make([][]int, len(classes))
	for i, class := range classes {
		base[i] = b.baseline(class)
		for _, gs := range groupSizes {
			for _, p := range policies {
				cells[i] = append(cells[i], b.iso(class, gs, p))
			}
		}
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	for i, class := range classes {
		vals := make([]float64, len(cells[i]))
		for j, h := range cells[i] {
			vals[j] = value(b.vm(h), b.vm(base[i]))
		}
		t.Add(class.String(), vals...)
	}
	return t, nil
}

// fig2 reproduces Figure 2: isolated-workload performance across LLC
// organizations and scheduling policies, normalized to the fully-shared
// baseline.
func (r *Runner) fig2() (*Table, error) {
	t, err := r.isolationSweep("F2", "Isolated workload performance (normalized runtime; 1.0 = fully shared)",
		[]int{core.DefaultCores, 8, 4, 1}, isoPolicies,
		func(v, base core.VMResult) float64 { return v.CyclesPerTx / base.CyclesPerTx })
	if err != nil {
		return nil, err
	}
	t.Note("higher = slower; paper: performance degrades as per-thread LLC share shrinks, worst for TPC-W")
	return t, nil
}

// fig3 reproduces Figure 3: isolated-workload LLC miss rates for the same
// sweep as Figure 2.
func (r *Runner) fig3() (*Table, error) {
	t, err := r.isolationSweep("F3", "Isolated workload LLC miss rates (misses per reference)",
		[]int{core.DefaultCores, 8, 4, 1}, isoPolicies,
		func(v, _ core.VMResult) float64 { return v.MissRate() })
	if err != nil {
		return nil, err
	}
	t.Note("paper: misses grow as capacity seen by each thread decreases; RR replicates read-shared data")
	return t, nil
}

// fig4 reproduces Figure 4: isolated-workload average miss latencies for
// shared, shared-4-way and private LLCs under all four policies.
func (r *Runner) fig4() (*Table, error) {
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
	base := make([]int, len(mixes))
	iso4 := make([]int, len(mixes))
	cells := make([][]int, len(mixes))
	for i, mix := range mixes {
		base[i], iso4[i] = b.baseline(mix.Classes[0]), b.iso4(mix.Classes[0])
		for _, p := range sched.All() {
			cells[i] = append(cells[i], b.mix(mix, 4, p))
		}
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	for i, mix := range mixes {
		vals := make([]float64, len(cells[i]))
		for j, h := range cells[i] {
			res := b.get(h)
			sum := 0.0
			for _, v := range res.VMs {
				sum += value(v, b.vm(base[i]), b.vm(iso4[i]))
			}
			vals[j] = sum / float64(len(res.VMs))
		}
		t.Add(fmt.Sprintf("%s %s", mix.ID, mix.Classes[0]), vals...)
	}
	return t, nil
}

// fig5 reproduces Figure 5: homogeneous-mix performance per policy,
// relative to isolation.
func (r *Runner) fig5() (*Table, error) {
	t, err := r.homogeneousSweep("F5", "Homogeneous mixes: normalized runtime vs isolation (shared-4-way)",
		func(v, iso, _ core.VMResult) float64 { return v.CyclesPerTx / iso.CyclesPerTx })
	if err != nil {
		return nil, err
	}
	t.Note("paper: affinity is the best policy; SPECjbb and SPECweb degrade most under round robin")
	return t, nil
}

// fig6 reproduces Figure 6: homogeneous-mix miss latency per policy,
// normalized to the workload isolated with affinity scheduling.
func (r *Runner) fig6() (*Table, error) {
	t, err := r.homogeneousSweep("F6", "Homogeneous mixes: miss latency vs isolation/affinity",
		func(v, _, iso4 core.VMResult) float64 { return v.AvgMissLatency() / iso4.AvgMissLatency() })
	if err != nil {
		return nil, err
	}
	t.Note("paper: TPC-W shows the greatest miss-latency increase going from isolated to mixed")
	return t, nil
}

// fig7 reproduces Figure 7: homogeneous-mix miss rates relative to
// isolation.
func (r *Runner) fig7() (*Table, error) {
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
	baseRuns, iso4Runs := map[workload.Class]int{}, map[workload.Class]int{}
	cells := make([][]int, len(mixes))
	for i, mix := range mixes {
		for _, class := range mix.Classes {
			if _, ok := baseRuns[class]; !ok {
				baseRuns[class], iso4Runs[class] = b.baseline(class), b.iso4(class)
			}
		}
		for _, gs := range groupSizes {
			for _, p := range policies {
				cells[i] = append(cells[i], b.mix(mix, gs, p))
			}
		}
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	for i, mix := range mixes {
		// One row per distinct workload in the mix, averaging instances.
		seen := map[workload.Class]bool{}
		for _, class := range mix.Classes {
			if seen[class] {
				continue
			}
			seen[class] = true
			iso, iso4 := b.vm(baseRuns[class]), b.vm(iso4Runs[class])
			vals := make([]float64, len(cells[i]))
			for j, h := range cells[i] {
				sum, n := 0.0, 0
				for _, v := range b.get(h).ByClass(class) {
					sum += value(v, iso, iso4)
					n++
				}
				vals[j] = sum / float64(n)
			}
			t.Add(fmt.Sprintf("%s %s", mix.ID, class), vals...)
		}
	}
	return t, nil
}

// fig8 reproduces Figure 8: heterogeneous-mix performance relative to
// isolation, for affinity and round-robin on shared-4-way caches.
func (r *Runner) fig8() (*Table, error) {
	// The paper also plots the isolation shared-4 references.
	type isoRow struct {
		class workload.Class
		base  int
		cells []int
	}
	var isoRows []isoRow
	b := r.newBatch()
	for _, class := range workload.All() {
		if class == workload.SPECweb {
			continue // SPECweb joins no heterogeneous mixes
		}
		row := isoRow{class: class, base: b.baseline(class)}
		for _, p := range isoPolicies {
			row.cells = append(row.cells, b.iso(class, 4, p))
		}
		isoRows = append(isoRows, row)
	}
	t, err := r.heterogeneousSweep(b, "F8", "Heterogeneous mixes: normalized runtime vs isolation (shared-4-way)",
		isoPolicies, []int{4},
		func(v, iso, _ core.VMResult) float64 { return v.CyclesPerTx / iso.CyclesPerTx })
	if err != nil {
		return nil, err
	}
	for _, row := range isoRows {
		vals := make([]float64, len(row.cells))
		for j, h := range row.cells {
			vals[j] = b.vm(h).CyclesPerTx / b.vm(row.base).CyclesPerTx
		}
		t.Add(fmt.Sprintf("isolation %s", row.class), vals...)
	}
	t.Note("paper: TPC-H is largely unaffected by co-runners; SPECjbb degrades most")
	return t, nil
}

// fig9 reproduces Figure 9: heterogeneous-mix miss rates relative to
// isolation.
func (r *Runner) fig9() (*Table, error) {
	t, err := r.heterogeneousSweep(r.newBatch(), "F9", "Heterogeneous mixes: LLC miss rate vs isolation (shared-4-way)",
		isoPolicies, []int{4},
		func(v, iso, _ core.VMResult) float64 { return v.MissRate() / iso.MissRate() })
	if err != nil {
		return nil, err
	}
	t.Note("paper: SPECjbb's miss rate grows sharply with TPC-W (mixes 7-9); TPC-H/affinity barely moves")
	return t, nil
}

// fig10 reproduces Figure 10: heterogeneous-mix miss latencies normalized
// to isolation with affinity scheduling on shared-4-way caches.
func (r *Runner) fig10() (*Table, error) {
	t, err := r.heterogeneousSweep(r.newBatch(), "F10", "Heterogeneous mixes: miss latency vs isolation/affinity/shared-4",
		isoPolicies, []int{4},
		func(v, _, iso4 core.VMResult) float64 { return v.AvgMissLatency() / iso4.AvgMissLatency() })
	if err != nil {
		return nil, err
	}
	t.Note("paper: SPECjbb's latency is least sensitive to co-runners, TPC-W's the most")
	return t, nil
}

// fig11 reproduces Figure 11: the degree-of-sharing sweep for the
// heterogeneous mixes under affinity scheduling — miss latency for
// shared-2/-4/-8 LLCs, normalized to shared-4 isolation.
func (r *Runner) fig11() (*Table, error) {
	t, err := r.heterogeneousSweep(r.newBatch(), "F11", "Heterogeneous mixes: miss latency vs sharing degree (affinity)",
		[]sched.Policy{sched.Affinity}, []int{2, 4, 8},
		func(v, _, iso4 core.VMResult) float64 { return v.AvgMissLatency() / iso4.AvgMissLatency() })
	if err != nil {
		return nil, err
	}
	t.Note("paper: TPC-H does best at shared-4 (a bank to itself); shared-8 flexibility helps SPECjbb")
	return t, nil
}

// fig12 reproduces Figure 12: the fraction of resident LLC lines
// replicated in two or more banks for the homogeneous mixes, per policy,
// with the private configuration as the maximum-replication bound.
func (r *Runner) fig12() (*Table, error) {
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
	cells := make([][]int, len(mixes))
	for i, mix := range mixes {
		for _, p := range policies {
			cells[i] = append(cells[i], b.mix(mix, 4, p))
		}
		cells[i] = append(cells[i], b.mix(mix, 1, sched.Affinity))
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	for i, mix := range mixes {
		vals := make([]float64, len(cells[i]))
		for j, h := range cells[i] {
			vals[j] = b.get(h).Snapshot.ReplicationFraction()
		}
		t.Add(fmt.Sprintf("%s %s", mix.ID, mix.Classes[0]), vals...)
	}
	t.Note("paper: round robin replicates most; SPECjbb and SPECweb replicate most among workloads")
	return t, nil
}

// fig13 reproduces Figure 13: per-workload occupancy of each shared-4-way
// LLC bank for the heterogeneous mixes under round-robin scheduling.
func (r *Runner) fig13() (*Table, error) {
	t := &Table{
		ID:      "F13",
		Title:   "Heterogeneous mixes: LLC occupancy share per VM (round robin, shared-4-way)",
		RowHead: "mix/bank",
		Columns: []string{"vm0", "vm1", "vm2", "vm3"},
	}
	mixes := HeterogeneousMixes()
	b := r.newBatch()
	runs := make([]int, len(mixes))
	for i, mix := range mixes {
		runs[i] = b.mix(mix, 4, sched.RoundRobin)
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	for i, mix := range mixes {
		res := b.get(runs[i])
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

// study is one registered study: its ID and its runner.
type study struct {
	id  string
	run func(*Runner) (*Table, error)
}

func studyIDs(studies []study) []string {
	ids := make([]string, len(studies))
	for i, s := range studies {
		ids[i] = s.id
	}
	return ids
}

// lookup returns the runner registered under id; kind names the registry
// in the error.
func lookup(studies []study, kind, id string) (func(*Runner) (*Table, error), error) {
	for _, s := range studies {
		if s.id == id {
			return s.run, nil
		}
	}
	return nil, fmt.Errorf("harness: unknown %s %q", kind, id)
}

// figures lists every artifact runner in publication order.
var figures = []study{
	{"T2", (*Runner).tableII},
	{"F2", (*Runner).fig2},
	{"F3", (*Runner).fig3},
	{"F4", (*Runner).fig4},
	{"F5", (*Runner).fig5},
	{"F6", (*Runner).fig6},
	{"F7", (*Runner).fig7},
	{"F8", (*Runner).fig8},
	{"F9", (*Runner).fig9},
	{"F10", (*Runner).fig10},
	{"F11", (*Runner).fig11},
	{"F12", (*Runner).fig12},
	{"F13", (*Runner).fig13},
}

// FigureIDs lists every artifact runner in publication order.
func FigureIDs() []string { return studyIDs(figures) }

// RunFigure dispatches an artifact by ID.
func (r *Runner) RunFigure(id string) (*Table, error) {
	run, err := lookup(figures, "figure", id)
	if err != nil {
		return nil, err
	}
	return run(r)
}

// RunFigures produces the requested artifacts, scheduling every figure's
// runs through the runner's one deduplicated work queue: figures are
// dispatched concurrently (up to Options.Parallel simulations in flight
// across the whole batch), and configurations shared between figures —
// the isolation baselines feed F2 through F7 — simulate exactly once,
// with single-flight latching instead of each figure re-deriving them.
// Tables come back in request order; IDs are validated up front.
func (r *Runner) RunFigures(ids ...string) ([]*Table, error) {
	runs := make([]func(*Runner) (*Table, error), len(ids))
	for i, id := range ids {
		run, err := lookup(figures, "figure", id)
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	tables := make([]*Table, len(ids))
	err := r.parallelDo(len(ids), func(i int) (err error) {
		tables[i], err = runs[i](r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}
