package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"consim"
	"consim/internal/obs"
)

// The traced pass gives the per-layer metrics, all measured from
// outside the program:
//
//   - untraced repetitions, for the wall time the shares divide by;
//   - observed repetitions with an obs.Observer attached, for exact
//     per-layer operation counts from the registry gauges the engine
//     already publishes, and for the cost of having them on;
//   - the staged replay, for host nanoseconds per operation per layer.
//
// A layer's share of wall is its ns/op times its operation count over
// the whole run, divided by the untraced wall_s. What the layers
// do not account for is core's own access-walk time, core.self_share.

// Shares of -seconds given to each part of the traced pass (the rest is
// the sweep's per-figure timing and slack).
const (
	pairedShare = 0.65 // untraced and observed reps, in alternation
	replayShare = 0.20
)

// estimatedCounts names the per-layer counts the program does not
// expose; the traced pass derives them from counts it does expose.
var estimatedCounts = []string{
	"sim.eventq_ops: 2 x sim_refs_total (one pop and one push per reference)",
	"coherence.dir_ops: private misses + upgrades + L1 and LLC evictions (one table walk each)",
	"mesh.transfers: (3 x LLC misses + 2 x invalidations + 2 x upgrades) x 15/16 (legs between distinct nodes)",
	"harness.setup_share: per-simulation NewSystem time by shape (isolated, mix) x simulations of that shape",
	"core.sample_speedup: the sequential reference's wall scaled to the sampled run's stream length",
}

// counts are one observed run's registry values. Counters cover the
// whole run; the cache_* and mem_* gauges cover the measurement window
// (the engine resets them after warm-up), so shares scale those by
// window, the ratio of all references to measured ones.
type counts struct {
	refs, privMisses, llcMisses, c2c, invals, upgrades uint64 // whole run

	l0Acc, l0Miss, l1Acc, l1Miss, l1Evict uint64 // measurement window
	llcAcc, llcMiss, llcEvict             uint64
	memReads, memWritebacks, memWait      uint64

	dirEntries, dcHits, dcMisses uint64 // whole run
	sims, jobs                   uint64
	simSeconds                   float64 // host time inside simulations, summed
	window                       float64
}

// readCounts reads the registry after an observed run. measured is the
// run's references inside the measurement window as the engine counts
// them (detailed ones only), stream the references its generators
// issued in all (fast-forwarded ones included).
func readCounts(o *obs.Observer, measured, stream uint64) counts {
	v := func(id obs.ID) uint64 { return o.Reg.Value(id) }
	m := o.Sim
	c := counts{
		refs: v(m.Refs), privMisses: v(m.PrivMisses), llcMisses: v(m.LLCMisses),
		c2c: v(m.C2CClean) + v(m.C2CDirty), invals: v(m.Invalidations), upgrades: v(m.Upgrades),
		l0Acc: v(m.LevelAccesses[0]), l0Miss: v(m.LevelMisses[0]),
		l1Acc: v(m.LevelAccesses[1]), l1Miss: v(m.LevelMisses[1]), l1Evict: v(m.LevelEvictions[1]),
		llcAcc: v(m.LevelAccesses[2]), llcMiss: v(m.LevelMisses[2]), llcEvict: v(m.LevelEvictions[2]),
		memReads: v(m.MemReads2), memWritebacks: v(m.MemWritebacks), memWait: v(m.MemWaitCycles),
		dirEntries: v(m.DirEntries), dcHits: v(m.DirCacheHits), dcMisses: v(m.DirCacheMisses),
		sims: v(m.Sims), jobs: v(m.Jobs),
		simSeconds: float64(v(m.PhaseWarmupMicros)+v(m.PhaseMeasureMicros)) / 1e6,
	}
	// Warm-up is detailed on every engine, so what the counters hold
	// beyond the measured references is the warm-up's part of the stream.
	warmup := c.refs - measured
	c.window = ratio(float64(stream), float64(stream-warmup))
	return c
}

// traced is the traced pass's outcome.
type traced struct {
	pass     *pass
	values   map[string]float64
	replay   *probe
	observed timing // wall of the observed reps
}

// shareNames are the shares of wall attributed to layers; what they
// leave is core's own access-walk time.
var shareNames = []string{
	"workload.share", "sim.eventq_share", "cache.private_share", "cache.llc_share",
	"coherence.share", "mesh.share", "memctrl.share", "harness.setup_share",
}

// selfShare is core.self_share: 1 minus every layer's share. It is
// reported, never hidden, and can go negative where the replay's
// per-operation costs overstate the program's (the sampled workload's
// warming walk does the same operations fused).
func selfShare(v map[string]float64) float64 {
	s := 1.0
	for _, n := range shareNames {
		s -= v[n]
	}
	return s
}

// observation is what an observed rep yields beyond its wall time.
type observation struct {
	counts    counts
	manifests []obs.Manifest // the sweep's per-simulation records
	spans     int            // spans the program's own tracer recorded
	wall      float64
}

// tracePass runs the traced pass for w.
func tracePass(w workload, opt runOpts) (*traced, error) {
	p := &pass{}
	if err := prepare(w, opt, p); err != nil {
		return nil, err
	}
	seen, observed, err := pairedReps(w, opt, p)
	if err != nil {
		return nil, err
	}
	var first consim.Result // the simulated statistics of every rep of this seed
	for _, r := range p.reps {
		if r.err == nil {
			first = r.res
			break
		}
	}
	t := &traced{pass: p, values: make(map[string]float64, len(perLayer)), replay: newProbe(), observed: observed}
	for _, d := range perLayer {
		t.values[d.Name] = 0
	}

	// The replay presents the workload's own configuration; the sweep is
	// many configurations, so it is represented by its largest shape, the
	// 4-VM mix at the sweep's scale and budgets.
	cfg, paced, total, lanes := consim.Config{}, first, p.refs, 1.0
	if w.sweep != nil {
		ropt, _ := w.sweep(opt.seed)
		cfg = mix4(opt.seed, ropt.Scale, consim.RoundRobin, ropt.WarmupRefs, ropt.MeasureRefs)
		if paced, err = consim.Run(cfg); err != nil {
			return nil, fmt.Errorf("pacing run: %w", err)
		}
		// One simulation's worth: its measured references scaled to the
		// whole run by the budgets' ratio.
		total = 0
		for _, v := range paced.VMs {
			total += v.Stats.Refs
		}
		total = total * (cfg.WarmupRefs + cfg.MeasureRefs) / cfg.MeasureRefs
		lanes = float64(ropt.Parallel)
	} else {
		cfg = w.config(opt.seed)
	}
	last, err := t.runReplay(cfg, paced, total, time.Duration(replayShare*opt.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}

	t.ledger(seen.counts, last, first, lanes)
	t.engines(first)
	if w.sweep != nil {
		if err := t.sweep(w, opt, seen); err != nil {
			return nil, err
		}
	}
	v := t.values
	v["obs.overhead_frac"] = t.observed.Q1/p.wallS.Q1 - 1
	v["obs.spans"] = float64(seen.spans + len(t.replay.spans))
	v["coherence.table2_err"] = p.table2Err
	v["core.max_rel_err"] = p.maxRelErr
	v["core.self_share"] = selfShare(v)
	return t, nil
}

// pairedReps alternates untraced and observed reps for its share of
// opt.seconds, so that a slow drift of the host moves both sides alike
// and their ratio, the tracing overhead, stays readable. The untraced
// reps go into p and are checked; an observed rep's operations count
// like any other's. It returns the first observed rep's observation and
// the observed reps' wall times.
func pairedReps(w workload, opt runOpts, p *pass) (*observation, timing, error) {
	var observedReps []rep
	var seen *observation
	var failure error
	repeatFor(pairedShare*opt.seconds, 2, func() float64 {
		u := runRep(w, opt, nil)
		o, ob, err := observedRep(w, opt, seen == nil)
		if err != nil && failure == nil {
			failure = err
		}
		if seen == nil {
			seen = ob
		}
		p.reps = append(p.reps, u)
		observedReps = append(observedReps, o)
		return u.wallS + o.wallS
	})
	if failure != nil {
		return nil, timing{}, failure
	}
	p.check(w)
	if p.wallS.N == 0 {
		return nil, timing{}, fmt.Errorf("workload %s: no untraced rep finished: %v", w.name, p.notes)
	}
	var walls []float64
	for i, r := range observedReps {
		if p.count(r, fmt.Sprintf("observed rep %d", i)) {
			walls = append(walls, r.wallS)
		} else if i == 0 {
			return nil, timing{}, fmt.Errorf("workload %s: the observed rep the counts come from failed: %v", w.name, p.notes)
		}
	}
	return seen, summarize(walls), nil
}

// observedRep runs one rep with an Observer attached: the registry the
// counts are read from, the program's tracer and, when asked for on the
// sweep, a manifest file for its per-simulation records.
func observedRep(w workload, opt runOpts, withManifest bool) (rep, *observation, error) {
	tr := obs.NewTracer()
	var man *obs.ManifestWriter
	manPath := filepath.Join(opt.tmpDir, fmt.Sprintf("benchmark-manifest-%d.jsonl", os.Getpid()))
	if withManifest && w.sweep != nil {
		var err error
		if man, err = obs.OpenManifest(manPath); err != nil {
			return rep{}, nil, fmt.Errorf("manifest: %w", err)
		}
	}
	o := obs.NewObserver(tr, man, nil)
	r := runRep(w, opt, o)
	ob := &observation{spans: tr.Events() / 2, wall: r.wallS}
	if man != nil {
		err := man.Close()
		if err == nil {
			ob.manifests, err = obs.ReadManifests(manPath)
		}
		os.Remove(manPath)
		if err != nil {
			return r, nil, fmt.Errorf("manifest: %w", err)
		}
	}
	var measured uint64
	for _, v := range r.res.VMs {
		measured += v.Stats.Refs
	}
	for _, m := range ob.manifests {
		measured += m.Refs
	}
	ob.counts = readCounts(o, measured, r.refs)
	return r, ob, nil
}

// runReplay replays cfg from cold, total references (one rep's worth) at
// a time, until budget is used, and returns the last replay for its
// miss ratios.
func (t *traced) runReplay(cfg consim.Config, paced consim.Result, total uint64, budget time.Duration) (*replay, error) {
	deadline := time.Now().Add(budget)
	var last *replay
	for last == nil || time.Now().Before(deadline) {
		r, err := newReplay(t.replay, cfg, paced)
		if err != nil {
			return nil, err
		}
		r.run(total, deadline)
		if last == nil || r.done == total {
			last = r // a pass the deadline cut short says less about miss ratios
		}
	}
	return last, nil
}

// ledger fills in every layer's counts, ns/op and share of wall.
func (t *traced) ledger(c counts, r *replay, res consim.Result, lanes float64) {
	p, v := t.pass, t.values
	wallNs := p.wallS.Q1 * lanes * 1e9
	cost := func(stage string) float64 { return t.replay.cost[stage].nsPerOp() }
	share := func(nsPerOp, ops float64) float64 { return nsPerOp * ops / wallNs }

	v["workload.refs"] = float64(p.refs)
	v["workload.next_ns"] = cost(stageWorkload)
	v["workload.share"] = share(cost(stageWorkload), float64(p.refs))

	v["sim.eventq_ops"] = 2 * float64(c.refs)
	v["sim.eventq_ns"] = cost(stageEventQ)
	v["sim.eventq_share"] = share(cost(stageEventQ), 2*float64(c.refs))

	v["cache.l0_accesses"] = float64(c.l0Acc)
	v["cache.l0_miss_ratio"] = ratio(float64(c.l0Miss), float64(c.l0Acc))
	v["cache.l1_accesses"] = float64(c.l1Acc)
	v["cache.l1_miss_ratio"] = ratio(float64(c.l1Miss), float64(c.l1Acc))
	v["cache.private_ns"] = cost(stagePrivate)
	v["cache.private_share"] = share(cost(stagePrivate), float64(c.l0Acc)*c.window)
	v["cache.llc_accesses"] = float64(c.llcAcc)
	v["cache.llc_miss_ratio"] = ratio(float64(c.llcMiss), float64(c.llcAcc))
	v["cache.llc_evictions"] = float64(c.llcEvict)
	v["cache.llc_ns"] = cost(stageLLC)
	v["cache.llc_share"] = share(cost(stageLLC), float64(c.llcAcc)*c.window)
	v["cache.replay_l0_miss_ratio"] = missRatio(r.l0)
	v["cache.replay_l1_miss_ratio"] = missRatio(r.l1)
	v["cache.replay_llc_miss_ratio"] = missRatio(r.banks)

	dirOps := float64(c.privMisses+c.upgrades) + float64(c.l1Evict+c.llcEvict)*c.window
	dcAcc := float64(c.dcHits + c.dcMisses)
	kref := float64(c.refs) / 1000
	v["coherence.dir_entries"] = float64(c.dirEntries)
	v["coherence.dir_ops"] = dirOps
	v["coherence.dir_ns"] = cost(stageDir)
	v["coherence.dircache_accesses"] = dcAcc
	v["coherence.dircache_hit_ratio"] = ratio(float64(c.dcHits), dcAcc)
	v["coherence.dircache_ns"] = cost(stageDirCache)
	v["coherence.c2c_per_kref"] = ratio(float64(c.c2c), kref)
	v["coherence.inval_per_kref"] = ratio(float64(c.invals), kref)
	v["coherence.upgrade_per_kref"] = ratio(float64(c.upgrades), kref)
	v["coherence.share"] = share(cost(stageDir), dirOps) + share(cost(stageDirCache), dcAcc)
	v["coherence.replay_dircache_hit_ratio"] = r.dirCache.HitRate()

	transfers := float64(3*c.llcMisses+2*c.invals+2*c.upgrades) * 15 / 16
	v["mesh.transfers"] = transfers
	v["mesh.latency_ns"] = cost(stageMesh)
	v["mesh.avg_hops"] = res.NetAvgHops
	v["mesh.avg_wait_cycles"] = res.NetAvgWait
	v["mesh.share"] = share(cost(stageMesh), transfers)

	v["memctrl.reads"] = float64(c.memReads)
	v["memctrl.writebacks"] = float64(c.memWritebacks)
	v["memctrl.read_ns"] = cost(stageMem)
	v["memctrl.avg_wait_cycles"] = ratio(float64(c.memWait), float64(c.memReads))
	v["memctrl.share"] = share(cost(stageMem), float64(c.memReads+c.memWritebacks)*c.window)

	v["core.ns_per_ref"] = ratio(wallNs, float64(p.refs))
	v["core.llc_miss_rate"] = ratio(float64(c.llcMisses), float64(c.refs))
	v["core.sim_cycles"] = float64(res.Cycles)
	var cpts []float64
	var latSum, privMisses float64
	for _, m := range res.VMs {
		cpts = append(cpts, m.CyclesPerTx)
		latSum += float64(m.Stats.MissLatSum)
		privMisses += float64(m.Stats.PrivMisses)
	}
	v["core.cpt_geomean"] = geomean(cpts)
	v["core.avg_miss_latency_cycles"] = ratio(latSum, privMisses)
}

// engines fills in the metrics that exist only on an engine's own
// workload, from the untraced reps' Result.Pdes, Result.Sample and
// Result.Phase and the sequential reference run.
func (t *traced) engines(res consim.Result) {
	p, v := t.pass, t.values
	if p.reference == nil {
		return
	}
	ref := p.reference
	refPerS := float64(ref.refs) / ref.wallS
	if res.Pdes.Workers > 1 {
		v["core.pdes_speedup"] = p.refsPerS.Q3 / refPerS
		v["core.pdes_apply_frac"] = res.Phase.ApplyFraction(res.WallSeconds)
		v["core.pdes_stall_frac"] = ratio(res.Pdes.StallSeconds, res.WallSeconds)
		v["core.pdes_windows"] = float64(res.Pdes.Windows)
	}
	if res.Sample.Windows > 0 {
		// A detailed run of the sampled configuration would simulate its
		// whole measurement budget at the reference's pace.
		rc, sc := ref.res.Config, res.Config
		detailed := ref.wallS * float64(sc.WarmupRefs+sc.MeasureRefs) / float64(rc.WarmupRefs+rc.MeasureRefs)
		v["core.sample_speedup"] = detailed / p.wallS.Q1
		v["core.sample_ff_cost_ratio"] = res.FFCostRatio()
		v["core.sample_windows"] = float64(res.Sample.Windows)
		v["core.sample_rel_ci"] = res.Sample.AchievedRelCI
	}
}

// sweep fills in the harness layer: pool use from the observed sweep's
// per-simulation wall times, the share of pool time spent constructing
// systems, and each figure's own time on a fresh runner.
func (t *traced) sweep(w workload, opt runOpts, seen *observation) error {
	v, c, manifests := t.values, seen.counts, seen.manifests
	ropt, ids := w.sweep(opt.seed)
	pool := seen.wall * float64(ropt.Parallel)
	v["harness.sims"] = float64(c.sims)
	v["harness.jobs"] = float64(c.jobs)
	v["harness.pool_util"] = ratio(c.simSeconds, pool)
	v["core.sim_cycles"] = 0
	for _, m := range manifests {
		v["core.sim_cycles"] += float64(m.Cycles)
	}

	iso, err := medianSetup(sweepFirstSim(ropt))
	if err != nil {
		return err
	}
	mix, err := medianSetup(mix4(opt.seed, ropt.Scale, consim.RoundRobin, ropt.WarmupRefs, ropt.MeasureRefs))
	if err != nil {
		return err
	}
	building := 0.0
	for _, m := range manifests {
		if len(m.Workloads) > 1 {
			building += mix
		} else {
			building += iso
		}
	}
	v["harness.setup_share"] = ratio(building, t.pass.wallS.Q1*float64(ropt.Parallel))

	for _, id := range ids {
		runtime.GC()
		r := consim.NewRunner(ropt)
		start := time.Now()
		if _, err := r.RunFigure(id); err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		v["harness.fig_"+id+"_s"] = time.Since(start).Seconds()
	}
	return nil
}

// medianSetup is the median NewSystem time for cfg over a few builds.
func medianSetup(cfg consim.Config) (float64, error) {
	var xs []float64
	for i := 0; i < 5; i++ {
		runtime.GC()
		start := time.Now()
		sys, err := consim.NewSystem(cfg)
		xs = append(xs, time.Since(start).Seconds())
		if err != nil {
			return 0, err
		}
		sink = sys
	}
	return summarize(xs).Median, nil
}

// print writes the traced pass's account: the layer ledger and the
// replay's miss ratios beside the observed run's.
func (t *traced) print(w io.Writer) {
	v := t.values
	fmt.Fprintf(w, "layer ledger (share of untraced wall_s %.4f s; observed %.4f s):\n", t.pass.wallS.Q1, t.observed.Q1)
	rows := []struct{ layer, ns, share string }{
		{"workload", "workload.next_ns", "workload.share"},
		{"sim (event queue)", "sim.eventq_ns", "sim.eventq_share"},
		{"cache (L0+L1)", "cache.private_ns", "cache.private_share"},
		{"cache (LLC)", "cache.llc_ns", "cache.llc_share"},
		{"coherence", "coherence.dir_ns", "coherence.share"},
		{"mesh", "mesh.latency_ns", "mesh.share"},
		{"memctrl", "memctrl.read_ns", "memctrl.share"},
		{"harness (set-up)", "", "harness.setup_share"},
		{"core (self, remainder)", "core.ns_per_ref", "core.self_share"},
	}
	for _, r := range rows {
		ns := ""
		if r.ns != "" {
			ns = fmt.Sprintf("%8.2f ns/op", v[r.ns])
		}
		fmt.Fprintf(w, "  %-24s %16s  share %7.4f\n", r.layer, ns, v[r.share])
	}
	fmt.Fprintln(w, "replay drift (observed run | staged replay):")
	for _, d := range []struct{ what, observed, replayed string }{
		{"L0 miss ratio", "cache.l0_miss_ratio", "cache.replay_l0_miss_ratio"},
		{"L1 miss ratio", "cache.l1_miss_ratio", "cache.replay_l1_miss_ratio"},
		{"LLC miss ratio", "cache.llc_miss_ratio", "cache.replay_llc_miss_ratio"},
		{"dircache hit ratio", "coherence.dircache_hit_ratio", "coherence.replay_dircache_hit_ratio"},
	} {
		fmt.Fprintf(w, "  %-20s %.4f | %.4f\n", d.what, v[d.observed], v[d.replayed])
	}
}
