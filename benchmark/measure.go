package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"consim"
	"consim/internal/obs"
	model "consim/internal/workload"
)

// rep is the outcome of one repetition of a workload: fresh state
// built, then one System.Run or Runner.RunFigures call.
type rep struct {
	wallS  float64 // host time of the Run / RunFigures call alone
	refs   uint64  // references simulated, warm-up included (0: not countable without an observer)
	allocs uint64  // heap objects allocated across construction and the call
	rssMB  float64 // resident-set high-water mark reached during the rep
	digest string

	res consim.Result // the finished run; zero for the figure sweep

	ops    int // operations attempted: 1 per run, 1 per figure for the sweep
	failed int // operations that returned an error, panicked or produced nothing
	err    error
}

// runOpts are the settings of one pass that do not depend on the
// workload.
type runOpts struct {
	seed    uint64
	seconds float64
	quick   bool
	tmpDir  string
}

// setupSamples is how many times a run builds its state just to time
// the construction; setup_s is their fast quartile.
const setupSamples = 31

// sink keeps constructed state reachable until the timer has stopped.
var sink any

// runRep executes one repetition of w. With o non-nil the run publishes
// through the observer; otherwise tracing is off. A panic on the
// calling goroutine counts as the rep's failure.
func runRep(w workload, opt runOpts, o *obs.Observer) (out rep) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("panic: %v", r)
			out.failed = out.ops
		}
	}()
	runtime.GC()
	resetPeakRSS()
	defer func() { out.rssMB = peakRSSMB() }()
	var m0, m1 runtime.MemStats
	if w.sweep != nil {
		ropt, ids := w.sweep(opt.seed)
		if opt.quick {
			ropt.WarmupRefs /= quickDivisor
			ropt.MeasureRefs /= quickDivisor
		}
		ropt.Obs = o
		out.ops = len(ids)
		runtime.ReadMemStats(&m0)
		r := consim.NewRunner(ropt)
		start := time.Now()
		tables, err := r.RunFigures(ids...)
		out.wallS = time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		out.allocs = m1.Mallocs - m0.Mallocs
		if err != nil {
			out.err, out.failed = err, out.ops
			return out
		}
		for _, t := range tables {
			if t == nil || len(t.Rows) == 0 {
				out.failed++
			}
		}
		out.digest = tablesDigest(tables)
		if o != nil {
			out.refs = o.Reg.Value(o.Sim.Refs)
		}
		return out
	}

	cfg := w.config(opt.seed)
	if opt.quick {
		shrink(&cfg)
	}
	cfg.Obs = o.Hooks()
	out.ops = 1
	runtime.ReadMemStats(&m0)
	sys, err := consim.NewSystem(cfg)
	if err != nil {
		out.err, out.failed = err, 1
		return out
	}
	start := time.Now()
	res, err := sys.Run()
	out.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	out.allocs = m1.Mallocs - m0.Mallocs
	out.res = res
	for _, m := range sys.VMs() {
		out.refs += m.Gen.TotalRefs()
	}
	if err != nil {
		out.err, out.failed = err, 1
		return out
	}
	out.digest = resultDigest(res)
	return out
}

// setupSample builds w's state once and returns the host time of the
// construction: NewSystem for a simulation; for the sweep, NewRunner
// plus the NewSystem of its first simulation (the runner alone builds in
// a fraction of a microsecond, and the sweep is bound by exactly the
// per-simulation construction this adds).
func setupSample(w workload, opt runOpts) (float64, error) {
	runtime.GC()
	var cfg consim.Config
	var ropt consim.RunnerOptions
	if w.sweep != nil {
		ropt, _ = w.sweep(opt.seed)
		cfg = sweepFirstSim(ropt)
	} else {
		cfg = w.config(opt.seed)
	}
	if opt.quick {
		shrink(&cfg)
	}
	start := time.Now()
	if w.sweep != nil {
		sink = consim.NewRunner(ropt)
	}
	sys, err := consim.NewSystem(cfg)
	d := time.Since(start).Seconds()
	sink = sys
	return d, err
}

// pass is what one process learns about one workload with tracing off:
// the end-to-end metrics' samples, the failure count and the simulated
// statistics that must not move under a speed-only change.
type pass struct {
	reps       []rep
	refs       uint64 // per rep; identical across reps of one seed
	attempted  int
	failed     int
	notes      []string // why operations failed
	digest     string
	reference  *rep    // the sequential run an engine workload is judged against
	maxRelErr  float64 // engine workloads only
	errBound   float64
	table2Err  float64 // the Table II workload only
	refsPerS   timing
	wallS      timing
	setupS     timing
	allocsMref timing
	peakRSS    timing
}

// prepare does a workload's untimed preliminaries: the sequential
// reference run an engine workload's error is measured against, and,
// for the figure sweep, one observed sweep to count the references its
// simulations issue (the runner does not expose them, and they are the
// same on every rep of a seed).
func prepare(w workload, opt runOpts, p *pass) error {
	if w.reference != nil {
		r := runRep(workload{name: w.referenceName, config: w.reference}, opt, nil)
		if r.err != nil {
			return fmt.Errorf("reference %s: %w", w.referenceName, r.err)
		}
		p.reference = &r
	}
	if w.sweep != nil {
		r := runRep(w, opt, obs.NewObserver(nil, nil, nil))
		if r.err != nil {
			return fmt.Errorf("counting sweep references: %w", r.err)
		}
		p.refs = r.refs
	}
	return nil
}

// repeatFor calls once, which does one repetition and returns the host
// time it measured, until budget seconds of measurement have passed: at
// least min times, and never once more than fits (judged by the longest
// repetition so far).
func repeatFor(budget float64, min int, once func() float64) {
	spent, longest := 0.0, 0.0
	for n := 0; n < min || spent+longest <= budget; n++ {
		d := once()
		spent += d
		if d > longest {
			longest = d
		}
	}
}

// measure is the end-to-end pass: set-up samples, then repetitions for
// opt.seconds, then the checks on what they produced.
func measure(w workload, opt runOpts) (*pass, error) {
	p := &pass{}
	if err := prepare(w, opt, p); err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		s, err := setupSample(w, opt)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	p.setupS = summarize(setups)
	budget, minReps := opt.seconds, 3
	if opt.quick {
		budget, minReps = 0, 1
	}
	repeatFor(budget, minReps, func() float64 {
		r := runRep(w, opt, nil)
		p.reps = append(p.reps, r)
		return r.wallS
	})
	p.check(w)
	return p, nil
}

// check counts failed operations and folds the successful repetitions
// into the end-to-end samples. The simulated statistics (digest, engine
// error, Table II error) are deterministic per seed, so the first
// finished rep supplies them and every rep is judged against them.
func (p *pass) check(w workload) {
	for _, r := range p.reps {
		if r.err != nil {
			continue
		}
		p.digest = r.digest
		if p.reference != nil {
			p.maxRelErr = engineErr(r.res, p.reference.res)
			p.errBound = w.errBound(r.res)
		}
		if w.table2 {
			p.table2Err = table2Err(r.res)
		}
		break
	}
	var perS, wall, allocs, rss []float64
	for i, r := range p.reps {
		if !p.count(r, fmt.Sprintf("rep %d", i)) {
			continue
		}
		if r.refs != 0 {
			p.refs = r.refs
		}
		mrefs := float64(p.refs) / 1e6
		wall = append(wall, r.wallS)
		perS = append(perS, float64(p.refs)/r.wallS)
		allocs = append(allocs, float64(r.allocs)/mrefs)
		rss = append(rss, r.rssMB)
	}
	p.refsPerS, p.wallS, p.allocsMref, p.peakRSS = summarize(perS), summarize(wall), summarize(allocs), summarize(rss)
}

// count books a rep's operations as attempted and, when judge finds
// fault with it, as failed (all of them, unless the rep itself said how
// many), with a note under the given label. It reports whether the rep
// is good.
func (p *pass) count(r rep, label string) bool {
	p.attempted += r.ops
	why := p.judge(r)
	if why == "" {
		return true
	}
	if r.failed == 0 {
		r.failed = r.ops
	}
	p.failed += r.failed
	p.notes = append(p.notes, label+": "+why)
	return false
}

// judge returns why a rep's operations failed, or "" if they did not:
// a returned error (which includes the run-end coherence invariant
// check) or a panic, an empty figure, a stats_digest that differs from
// the first rep's, or an engine error above its declared bound.
func (p *pass) judge(r rep) string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.failed > 0:
		return fmt.Sprintf("%d of %d figures came back empty", r.failed, r.ops)
	case r.digest != p.digest:
		return fmt.Sprintf("stats_digest %s differs from the first rep's %s", r.digest, p.digest)
	case p.reference != nil && p.maxRelErr > p.errBound:
		return fmt.Sprintf("max_rel_err %.4f above its bound %.4f", p.maxRelErr, p.errBound)
	}
	return ""
}

// endToEndValues returns the pass's end-to-end metrics by name.
func (p *pass) endToEndValues() map[string]float64 {
	return map[string]float64{
		"refs_per_s":      p.refsPerS.Q3,
		"wall_s":          p.wallS.Q1,
		"setup_s":         p.setupS.Q1,
		"peak_rss_mb":     p.peakRSS.Median,
		"allocs_per_mref": p.allocsMref.Median,
	}
}

// table2Err is the Table II workload's distance from the paper: the
// larger absolute gap of the cache-to-cache share of LLC misses and of
// the dirty share of those transfers against workload.TableII.
func table2Err(res consim.Result) float64 {
	if len(res.VMs) == 0 {
		return 0
	}
	v := res.VMs[0]
	tg := model.TableII()[v.Class]
	a := v.Stats.C2COfLLCMisses() - tg.C2CAll
	b := v.Stats.C2CDirtyShare() - tg.C2CDirty
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}

// resetPeakRSS resets the kernel's resident-set high-water mark for
// this process to its current resident set, so that each rep's peak is
// its own. The peak of a whole run is the largest of its reps' peaks,
// which grows with the rep count and with how the sweep's goroutines
// happened to overlap; the median of per-rep peaks does neither. Where
// the kernel refuses the reset the mark simply keeps the process-wide
// peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB returns this process's resident-set high-water mark
// (VmHWM) in MB, or 0 where /proc does not give one.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
