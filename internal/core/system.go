package core

import (
	"fmt"
	"time"

	"consim/internal/cache"
	"consim/internal/coherence"
	"consim/internal/memctrl"
	"consim/internal/mesh"
	"consim/internal/obs"
	"consim/internal/prefetch"
	"consim/internal/sim"
	"consim/internal/vm"
	"consim/internal/workload"
)

// runnable is one schedulable VM thread.
type runnable struct {
	vmID   int
	thread int
}

// coreState is one in-order core: the thread(s) bound to it and its
// reference progress. In-order cores block on every memory access, so a
// core is fully described by the time its next reference may issue. With
// over-commitment a core holds several runnables and rotates between
// them every timeslice.
type coreState struct {
	queue    []runnable
	cur      int
	sliceEnd sim.Cycle
	active   bool
	refs     uint64
	rng      *sim.RNG
}

// System is one configured simulation: the paper's 16-core CMP with the
// chosen LLC organization and scheduling policy, loaded to capacity with
// the configured VMs.
type System struct {
	cfg  Config
	geom mesh.Geometry

	net      *mesh.Model
	mem      *memctrl.Mem
	dir      *coherence.Directory
	dirCache *coherence.DirCache

	l0    []*cache.Cache
	l1    []*cache.Cache
	banks []*cache.Cache // one per LLC group

	groupTab  [coherence.MaxNodes]uint8 // core -> LLC group (groupOf)
	groupMask int                       // GroupSize-1 when that is a power of two, else -1 (bankNode)

	bankBusy []sim.Cycle // per mesh node (bank slice occupancy)
	dirBusy  []sim.Cycle // per mesh node (directory occupancy)

	vms        []*vm.VM
	cores      []coreState
	assignment [][]int
	thinkOf    []uint64           // per-VM 2*mean+1 think-time draw range
	regions    []workload.Regions // per-VM footprint classifier (hot-loop cache)

	// Switches counts hypervisor timeslice rotations (over-commit mode).
	Switches uint64

	globalRefs  uint64
	activeCores int

	now sim.Cycle
	q   *sim.EventQueue

	backInvals uint64

	// simSeconds accumulates host time spent inside runUntil only, so
	// Result.WallSeconds reflects simulation work and is not skewed by
	// hook/trace/manifest publishing or snapshot accounting.
	simSeconds float64

	// Observability: hooks publish live metrics on a cadence (and emit
	// phase trace spans); lastPub re-bases counter deltas so sums over
	// shards stay monotone. All publish work is allocation-free.
	hooks   *obs.RunHooks
	lastPub pubTotals

	// Per-window time-series recording (hooks.Series set): rec holds one
	// row per live publish in columns preallocated from the reference
	// budget; the tsPrev* scratch re-bases per-VM deltas between rows,
	// and tsPhase tracks the phase tag the enclosing phase() span set.
	// All recording work is allocation-free (alloc_test.go guards it).
	rec         *obs.Series
	tsStart     time.Time
	tsPhase     obs.TSPhase
	tsPrevCycle sim.Cycle
	tsPrevRefs  []uint64
	tsPrevMiss  []uint64
	tsRefsPerTx []float64

	// phaseProf accumulates the run's wall-time decomposition; engine-
	// specific terms are folded in from the engines at run end.
	phaseProf obs.PhaseProfile

	// pdes is the split-transaction parallel engine (cfg.Pdes > 1); nil
	// runs the sequential loop. See pdes.go for the window protocol and
	// why results are equivalence-gated rather than bit-identical.
	pdes *pdesEngine

	// sample accumulates the interval-sampling engine's provenance
	// (cfg.Sample enabled); ffStats is the per-VM scratch counter sink
	// fast-forwarded references write into so the measurement counters in
	// vm.Stats only ever see detailed-window work. Allocated lazily on
	// first fast-forward — detailed runs pay nothing. See sample.go.
	sample  SampleStats
	ffStats []vm.Stats

	// ffRate holds each core's reference count from the last detailed
	// sampling window; fastForward apportions the skipped stream in
	// proportion to it (CPI-proportional interleaving, see ffBudgets).
	// Nil until the first detailed window completes — uniform until then.
	ffRate   []uint64
	ffBudget []uint64 // reusable apportionment scratch

	// warm holds the fast-forward reference-supply contexts (warm.go),
	// built once per run: sampling validation fixes each active core's
	// runnable, so the per-core invariants they hoist stay valid across
	// fast-forwards. ffOracle routes fast-forward through the plain ffLoop
	// rotation instead — the differential tests' bit-identity oracle for
	// the supply (both end in the same accessTM).
	warm     []warmCore
	ffOracle bool

	// lookahead turns on prefetchRef in the detailed and warming loops:
	// set once at construction when the modeled footprint outgrows the
	// host caches (lookahead.go). victimHints turns on fetchTM's hints
	// for its eviction victims' directory buckets: set once at
	// construction when the directory table is big enough for huge pages.
	lookahead   bool
	victimHints bool
}

// pubTotals snapshots the per-VM counter sums at the last live publish.
type pubTotals struct {
	refs, privMisses, llcMisses uint64
	c2cClean, c2cDirty          uint64
	invalidations, upgrades     uint64
	privMissCycles              uint64
}

// livePublishMask throttles live metric publishes to one per 8192
// issued references — cheap enough to leave on, fresh enough for a
// progress display.
const livePublishMask = 8192 - 1

// NewSystem builds and schedules a system from cfg. Construction errors
// (invalid config, unschedulable placement) are returned, not panicked:
// configs arrive from CLI flags and experiment sweeps. The caller's
// config is validated before its zero values are defaulted, so NewSystem
// refuses exactly what Validate refuses.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	netCfg := mesh.DefaultNetConfig(cfg.Cores)
	if cfg.Mem.Controllers == 0 {
		// Controllers attach at the mesh corners, generalizing the
		// paper's 4x4 layout to the scaling-study machine sizes.
		g := netCfg.Geometry
		cfg.Mem = memctrl.Config{
			Controllers: 4,
			Latency:     DefaultMemLatency,
			Occupancy:   20,
			Nodes: []int{
				g.Node(0, 0), g.Node(g.Width-1, 0),
				g.Node(0, g.Height-1), g.Node(g.Width-1, g.Height-1),
			},
		}
	}
	if cfg.DirCacheEntries == 0 {
		cfg.DirCacheEntries = 32768
	}
	if cfg.PipeStages == 0 {
		cfg.PipeStages = DefaultPipeStages
	}
	cfg.Sample = cfg.Sample.withDefaults(cfg.MeasureRefs)
	s := &System{
		cfg:      cfg,
		geom:     netCfg.Geometry,
		net:      mesh.NewModel(netCfg.Geometry, cfg.PipeStages),
		mem:      memctrl.New(cfg.Mem),
		dirCache: coherence.NewDirCache(cfg.Cores, coherence.DirCacheConfig{Entries: cfg.DirCacheEntries, Assoc: dirCacheAssoc}),
		bankBusy: make([]sim.Cycle, cfg.Cores),
		dirBusy:  make([]sim.Cycle, cfg.Cores),
		q:        sim.NewEventQueue(cfg.Cores),
		hooks:    cfg.Obs,
	}

	for c := 0; c < cfg.Cores; c++ {
		s.groupTab[c] = uint8(c / cfg.GroupSize)
	}
	s.groupMask = -1
	if cfg.GroupSize&(cfg.GroupSize-1) == 0 {
		s.groupMask = cfg.GroupSize - 1
	}
	s.l0 = cache.NewN(cfg.Cores, cache.Config{SizeBytes: cfg.l0Bytes(), Assoc: 2, Latency: DefaultL0Latency})
	s.l1 = cache.NewN(cfg.Cores, cache.Config{SizeBytes: cfg.l1Bytes(), Assoc: 4, Latency: DefaultL1Latency})
	s.banks = cache.NewN(cfg.Groups(), cache.Config{SizeBytes: cfg.llcGroupBytes(), Assoc: 16, Latency: DefaultLLCLatency})

	// Lay the VMs out in disjoint physical regions and place threads.
	rootRNG := sim.NewRNG(cfg.Seed)
	gens := make([]*workload.Generator, len(cfg.Workloads))
	fps := make([]uint64, len(cfg.Workloads))
	names := make([]string, len(cfg.Workloads))
	for i, spec := range cfg.Workloads {
		gens[i] = workload.NewGenerator(spec.Scaled(cfg.Scale), cfg.ThreadsPerVM, rootRNG.Uint64()+uint64(i))
		fps[i], names[i] = gens[i].FootprintBlocks(), spec.Name
	}
	bases, err := vm.Layout(fps, names, 1<<20)
	if err != nil {
		return nil, err
	}
	for i, gen := range gens {
		m := vm.New(i, gen, bases[i])
		s.vms = append(s.vms, m)
		s.regions = append(s.regions, m.Gen.Spec().Regions(cfg.ThreadsPerVM))
	}
	asg, err := cfg.Placement()
	if err != nil {
		return nil, err
	}
	s.assignment = asg
	s.thinkOf = make([]uint64, len(cfg.Workloads))
	for v := range cfg.Workloads {
		s.thinkOf[v] = uint64(2*cfg.Workloads[v].ThinkCycles) + 1
	}
	capacity := cfg.CoreCapacity()
	s.cores = make([]coreState, cfg.Cores)
	for c := range s.cores {
		s.cores[c].rng = sim.NewRNG(cfg.Seed ^ uint64(c)<<8 ^ 0x77)
	}
	for v := range asg {
		for t, c := range asg[v] {
			if len(s.cores[c].queue) >= capacity {
				return nil, fmt.Errorf("core: placement overfilled core %d", c)
			}
			s.cores[c].queue = append(s.cores[c].queue, runnable{vmID: v, thread: t})
			s.cores[c].active = true
		}
	}
	for c := range s.cores {
		if s.cores[c].active {
			s.activeCores++
		}
	}
	bound := s.dirBound()
	s.dir = coherence.NewDirectoryFor(cfg.Cores, bound)
	if cfg.QoSPartition {
		s.installPartitions()
	}
	s.lookahead = s.footprintBlocks() >= lookaheadMinBlocks
	// Below huge-page size the table lives in the host's private caches,
	// where the victim hints only cost (mix4_s16's 1 MB table ran 3.6%
	// slower with them; EXPERIMENTS.md "Hint-only lookahead").
	s.victimHints = coherence.TableBytes(bound) >= prefetch.HugePageBytes
	if cfg.Pdes > 1 {
		s.pdes = newPdesEngine(s)
	}
	return s, nil
}

// dirBound returns the most directory entries the run can keep live. The
// LLC is inclusive and the directory tracks on-chip lines only, so that
// is at most what the banks of the groups hosting a thread can hold, and
// never more than the VMs' blocks.
func (s *System) dirBound() int {
	var hosts [coherence.MaxNodes]bool
	for c := range s.cores {
		if s.cores[c].active {
			hosts[s.groupOf(c)] = true
		}
	}
	lines := 0
	for g, b := range s.banks {
		if hosts[g] {
			lines += b.Lines()
		}
	}
	return int(min(s.footprintBlocks(), uint64(lines)))
}

// shareOf returns VM v's relative QoS share (1 when unweighted).
func (s *System) shareOf(v int) int {
	if len(s.cfg.QoSShares) > 0 {
		return s.cfg.QoSShares[v]
	}
	return 1
}

// installPartitions way-partitions each LLC bank among the VMs whose
// threads are scheduled on the bank's core group, proportionally to
// their QoS shares.
func (s *System) installPartitions() {
	// SetPartition copies quota, so one pair of slices serves every bank.
	present, quota := make([]bool, len(s.vms)), make([]int, len(s.vms))
	for g, bank := range s.banks {
		nPresent := 0
		for v := range present {
			present[v] = false
		}
		for c := g * s.cfg.GroupSize; c < (g+1)*s.cfg.GroupSize; c++ {
			for _, run := range s.cores[c].queue {
				if !present[run.vmID] {
					present[run.vmID] = true
					nPresent++
				}
			}
		}
		if nPresent < 2 {
			continue // a single tenant needs no isolation
		}
		assoc := bank.Config().Assoc
		totalShares := 0
		for v, p := range present {
			if p {
				totalShares += s.shareOf(v)
			}
		}
		for v := range quota {
			quota[v] = assoc // absent VMs never insert here
		}
		for v, p := range present {
			if !p {
				continue
			}
			q := assoc * s.shareOf(v) / totalShares
			if q < 1 {
				q = 1
			}
			quota[v] = q
		}
		bank.SetPartition(quota)
	}
}

// currentVM returns the VM whose thread is running on core c right now.
func (s *System) currentVM(c int) int {
	cs := &s.cores[c]
	return cs.queue[cs.cur].vmID
}

// Assignment returns the placement chosen by the policy:
// assignment[vm][thread] = core.
func (s *System) Assignment() [][]int { return s.assignment }

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// VMs returns the virtual machines.
func (s *System) VMs() []*vm.VM { return s.vms }

// groupOf returns the LLC group of core c. A table, not c / GroupSize:
// the walk asks several times per private miss and the divisor is not a
// compile-time constant.
func (s *System) groupOf(c int) int { return int(s.groupTab[c]) }

// bankNode returns the mesh node holding the LLC slice of group g that
// caches addr: the group's capacity is interleaved across its cores'
// nodes, so private caches (group size 1) sit at their own core and
// larger groups spread across their span.
func (s *System) bankNode(g int, addr sim.Addr) int {
	n := s.cfg.GroupSize
	if s.groupMask >= 0 {
		return g*n + int(sim.BlockID(addr))&s.groupMask
	}
	return g*n + int(sim.BlockID(addr)%uint64(n))
}

// Run executes warm-up then measurement and returns the results.
func (s *System) Run() (Result, error) {
	if len(s.vms) == 0 {
		return Result{}, fmt.Errorf("core: empty system")
	}
	h := s.hooks
	lane := 0
	if h != nil {
		lane = h.RunStart(s.cfg.Label())
		defer h.RunEnd(lane)
	}
	if s.pdes != nil {
		s.pdes.start()
		defer s.pdes.stop()
	} else {
		// Seed the event queue with every active core. (The pdes engine
		// seeds its per-domain calendars instead.)
		for c := range s.cores {
			if s.cores[c].active {
				s.q.Push(0, c)
			}
		}
	}

	s.setupTS()

	// Warm-up phase.
	endPhase := s.phase(lane, "warmup")
	s.warmUp(lane)
	if h != nil {
		// Flush the warmup tail, then re-base the deltas: ResetStats is
		// about to zero every counter the publish cadence diffs against.
		s.publishLive()
		s.lastPub = pubTotals{}
	}
	endPhase()
	s.phaseProf.WarmupSeconds = s.simSeconds
	measureStart := s.now
	for _, m := range s.vms {
		m.ResetStats()
	}
	for _, c := range s.l0 {
		c.ResetStats()
	}
	for _, c := range s.l1 {
		c.ResetStats()
	}
	for _, b := range s.banks {
		b.ResetStats()
	}
	s.net.ResetStats()
	s.mem.ResetStats()
	if s.rec != nil {
		// Re-base the time-series deltas against the zeroed counters.
		for v := range s.tsPrevRefs {
			s.tsPrevRefs[v], s.tsPrevMiss[v] = 0, 0
		}
	}

	// Measurement phase, then the replication/occupancy snapshot at its
	// end. The sampled mode replaces the single detailed stretch with
	// windows and fast-forward.
	measSimStart := s.simSeconds
	endPhase = s.phase(lane, "measure")
	if s.cfg.Sample.Enabled() {
		s.runSampled(lane)
	} else {
		s.runUntil(s.cfg.WarmupRefs + s.cfg.MeasureRefs)
	}
	endSnap := s.phase(lane, "snapshot")
	snap := s.takeSnapshot()
	endSnap()
	if h != nil {
		// Flush the measurement tail while its rows still carry the
		// measure tag.
		s.publishLive()
	}
	endPhase()
	s.phaseProf.MeasureSeconds = s.simSeconds - measSimStart
	window := s.now - measureStart
	if s.pdes != nil {
		s.phaseProf.PdesReplaySeconds = s.pdes.stats.ApplySeconds
	}
	if h != nil {
		h.SetPhaseProfile(&s.phaseProf)
	}

	res := Result{
		WallSeconds:     s.simSeconds,
		Config:          s.cfg,
		Cycles:          window,
		Pdes:            s.pdesStats(),
		Sample:          s.sample,
		Phase:           s.phaseProf,
		Snapshot:        snap,
		Layers:          s.layers(),
		NetAvgHops:      s.net.AvgHops(),
		MemAvgWait:      s.mem.AvgWait(),
		DirCacheHitRate: s.dirCache.HitRate(),
		Switches:        s.Switches,
		Series:          s.rec,
	}
	for i, m := range s.vms {
		spec := m.Gen.Spec()
		tx := float64(m.Stats.Refs) / float64(spec.RefsPerTx)
		cpt := 0.0
		if tx > 0 {
			cpt = float64(window) / tx
		}
		res.VMs = append(res.VMs, VMResult{
			VM: i, Class: m.Class(), Name: m.Name(),
			Stats:         m.Stats,
			Transactions:  tx,
			CyclesPerTx:   cpt,
			TouchedBlocks: m.TouchedBlocks(),
		})
	}
	if err := s.dir.CheckInvariants(); err != nil {
		return res, fmt.Errorf("core: coherence invariant violated: %w", err)
	}
	return res, nil
}

// runUntil advances the system until every active core has issued at
// least target references.
func (s *System) runUntil(target uint64) {
	start := time.Now()
	s.runLoop(target)
	s.simSeconds += time.Since(start).Seconds()
}

// runLoop is runUntil's event loop, separated so the wall-clock
// accounting wraps exactly the simulation work.
func (s *System) runLoop(target uint64) {
	if s.pdes != nil {
		s.pdes.runUntil(target)
		return
	}
	s.runSequential(target)
}

// runSequential is the sequential engine's event loop: one event per
// reference, everything timing-visible happens here in pop order.
func (s *System) runSequential(target uint64) {
	remaining := 0
	for c := range s.cores {
		if s.cores[c].active && s.cores[c].refs < target {
			remaining++
		}
	}
	for remaining > 0 && s.q.Len() > 0 {
		t, c := s.q.Pop()
		s.now = t
		cs := &s.cores[c]
		run := cs.queue[cs.cur]
		m := s.vms[run.vmID]

		acc := m.Gen.Next(run.thread)
		m.Touch(acc.Block)
		addr := m.AddrOf(acc.Block)
		missesBefore := m.Stats.LLCMisses
		lat := s.access(c, run.vmID, addr, acc.Write)
		m.Stats.Refs++
		s.globalRefs++
		if m.Stats.LLCMisses != missesBefore {
			m.Stats.RegionMisses[s.regions[run.vmID].Of(acc.Block)]++
		}
		if s.hooks != nil && s.globalRefs&livePublishMask == 0 {
			s.publishLive()
		}

		cs.refs++
		if cs.refs == target {
			remaining--
		}
		next := s.now + lat + sim.Cycle(cs.rng.Uint64n(s.thinkOf[run.vmID]))
		// Over-commit: rotate the runnable at timeslice expiry, paying
		// the hypervisor switch cost.
		if len(cs.queue) > 1 && next >= cs.sliceEnd {
			cs.cur = (cs.cur + 1) % len(cs.queue)
			next += switchCost
			cs.sliceEnd = next + s.cfg.TimesliceCycles
			s.Switches++
		}
		s.q.Push(next, c)
		// The core's next reference issues only after the other cores'
		// pending events pop — one rotation of host time in which its
		// metadata can travel from DRAM (lookahead.go).
		if s.lookahead {
			nrun := cs.queue[cs.cur]
			if na, ok := s.vms[nrun.vmID].Gen.Peek(nrun.thread); ok {
				s.prefetchRef(c, nrun.vmID, na.Block)
			}
		}
	}
}

// phase opens a named trace span on the run's lane and tags subsequent
// time-series rows with the phase; the returned closer ends both. A
// trace no-op without hooks. The unobserved path must return the
// static closer: a capturing closure here costs one heap allocation
// per phase, which the benchmark's allocs_per_mref counts.
func (s *System) phase(lane int, name string) func() {
	prev := s.tsPhase
	s.tsPhase = obs.TSPhaseOf(name)
	if s.hooks == nil {
		if s.rec == nil {
			return noopPhaseEnd
		}
		return func() { s.tsPhase = prev }
	}
	end := s.hooks.Phase(lane, name)
	return func() {
		end()
		s.tsPhase = prev
	}
}

// noopPhaseEnd is the shared closer for unobserved phases; without a
// recorder nothing reads tsPhase, so there is no state to restore.
var noopPhaseEnd = func() {}

// setupTS attaches a time series to the run when the hooks ask for one.
// Its columns are sized from the reference budget: a row per
// livePublishMask+1 references, one per sampled window and a few phase
// boundaries. Cores that keep issuing while slower ones finish their
// budget, and a parallel-engine run's row per barrier, can outgrow that;
// the columns then double, a few allocations per run. The delta-rebasing
// scratch is allocated here too.
func (s *System) setupTS() {
	h := s.hooks
	if h == nil || !h.Series {
		return
	}
	rows := (s.cfg.WarmupRefs+s.cfg.MeasureRefs)*uint64(s.activeCores)/(livePublishMask+1) + 8
	if sc := s.cfg.Sample; sc.Enabled() {
		rows += (s.cfg.WarmupRefs + s.cfg.MeasureRefs) / sc.WindowRefs
	}
	s.rec = obs.NewSeries(len(s.vms), int(rows))
	s.tsStart = time.Now()
	s.tsPrevRefs = make([]uint64, len(s.vms))
	s.tsPrevMiss = make([]uint64, len(s.vms))
	s.tsRefsPerTx = make([]float64, len(s.vms))
	for v, m := range s.vms {
		s.tsRefsPerTx[v] = float64(m.Gen.Spec().RefsPerTx)
	}
}

// recordTS appends one time-series row from the current live counters:
// per-VM reference/miss/cycles-per-transaction deltas over the window
// since the previous row, the live memory queue depth and the sampling CI
// (when sampled). A publish after which no VM has issued a reference records
// nothing; its deltas fold into the next row. Pure column writes —
// allocation-free.
func (s *System) recordTS() {
	advanced := false
	for v, m := range s.vms {
		advanced = advanced || m.Stats.Refs != s.tsPrevRefs[v]
	}
	if !advanced {
		return
	}
	r := s.rec
	relCI := -1.0
	if s.cfg.Sample.Enabled() && s.sample.Windows > 0 {
		relCI = s.sample.AchievedRelCI
	}
	r.Begin(s.tsPhase, uint64(s.now), time.Since(s.tsStart).Seconds(),
		s.mem.QueueDepth(s.now), relCI)
	span := float64(s.now - s.tsPrevCycle)
	for v, m := range s.vms {
		dRefs := m.Stats.Refs - s.tsPrevRefs[v]
		dMiss := m.Stats.LLCMisses - s.tsPrevMiss[v]
		s.tsPrevRefs[v] = m.Stats.Refs
		s.tsPrevMiss[v] = m.Stats.LLCMisses
		miss, cpt := 0.0, 0.0
		if dRefs > 0 {
			miss = float64(dMiss) / float64(dRefs)
			cpt = span * s.tsRefsPerTx[v] / float64(dRefs)
		}
		r.VM(v, dRefs, miss, cpt)
	}
	s.tsPrevCycle = s.now
}

// publishLive folds the counters the hot loop accumulates in plain
// fields into the run's metric shard: per-VM counter deltas since the
// last publish, plus the memory system's ledger as gauges. Called on
// the livePublishMask cadence and at phase boundaries; every write lands
// in a preallocated atomic slot, so the call is allocation-free.
func (s *System) publishLive() {
	h := s.hooks
	var t pubTotals
	for _, m := range s.vms {
		st := &m.Stats
		t.refs += st.Refs
		t.privMisses += st.PrivMisses
		t.privMissCycles += uint64(st.MissLatSum)
		t.llcMisses += st.LLCMisses
		t.c2cClean += st.C2CClean
		t.c2cDirty += st.C2CDirty
		t.invalidations += st.Invalidations
		t.upgrades += st.Upgrades
	}
	last := &s.lastPub
	h.AddCore(
		t.refs-last.refs,
		t.privMisses-last.privMisses,
		t.privMissCycles-last.privMissCycles,
		t.llcMisses-last.llcMisses,
		t.c2cClean-last.c2cClean,
		t.c2cDirty-last.c2cDirty,
		t.invalidations-last.invalidations,
		t.upgrades-last.upgrades,
	)
	s.lastPub = t

	l := s.layers()
	h.SetLayers(&l)
	if s.rec != nil {
		s.recordTS()
	}
}

// layers sums the memory system's counters into its ledger: each cache
// level over its arrays, the directory, its caches and the memory
// controllers.
func (s *System) layers() obs.Layers {
	var l obs.Layers
	for i, level := range [3][]*cache.Cache{s.l0, s.l1, s.banks} {
		c := &l.Cache[i]
		for _, arr := range level {
			a, _, mi, ev := arr.Counters()
			c.Accesses, c.Misses, c.Evictions = c.Accesses+a, c.Misses+mi, c.Evictions+ev
		}
	}
	l.DirEntries = uint64(s.dir.Len())
	l.DirCacheHits, l.DirCacheMisses = s.dirCache.Hits, s.dirCache.Misses
	l.MemReads, l.MemWritebacks, l.MemWaitCycles = s.mem.Reads, s.mem.Writebacks, uint64(s.mem.WaitSum)
	return l
}

// pdesStats returns the parallel engine's run accounting (zero value
// for the sequential engine).
func (s *System) pdesStats() PdesStats {
	if s.pdes == nil {
		return PdesStats{}
	}
	return s.pdes.stats
}

// switchCost is the hypervisor's context-switch penalty, charged at
// each timeslice rotation.
const switchCost = sim.Cycle(500)

// takeSnapshot captures the Figure 12/13 state.
func (s *System) takeSnapshot() Snapshot {
	resident, replicated := s.dir.ReplicationSnapshot()
	occ := make([][]int, len(s.banks))
	for g, b := range s.banks {
		occ[g] = b.OccupancyByVM(len(s.vms) - 1)
	}
	return Snapshot{
		At:              s.now,
		ResidentLines:   resident,
		ReplicatedLines: replicated,
		Occupancy:       occ,
		GroupLines:      s.banks[0].Lines(),
	}
}
