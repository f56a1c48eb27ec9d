// Split-transaction parallel discrete-event engine.
//
// The sequential event loop executes every memory reference atomically
// at event-pop time, so the conservative lookahead between any two
// cores is zero: no two events can overlap without changing results.
// Config.Pdes = N therefore changes the model instead: it remodels each
// reference as a split transaction — an *issue* event that walks
// the requester's private hierarchy and an in-flight *completion* event
// scheduled one estimated miss latency later — and partitions the
// active cores into N domains, each advancing its own calendar
// independently through bounded time windows.
//
// Inside a window a domain touches only state it owns or state that is
// frozen for everyone:
//
//   - private L0/L1 caches of its cores (hits execute fully in-window);
//   - replicas of the contention trackers (bank/directory occupancy,
//     memory-controller queues) and of the mesh model's transfer
//     counters, re-based from the live models at every barrier;
//   - the shared tier (LLC banks, directory, directory caches) strictly
//     read-only, through Probe/Peek.
//
// Misses, upgrades and private evictions are classified against that
// frozen shared tier, charged an in-window latency *estimate* from the
// replicas, and logged as operations. At each window barrier the spine
// replays the merged, time-ordered operation log against the live
// shared tier (banks, directory, memory controllers), so every
// functional transition still happens exactly once, in one total order,
// under the same coherence walk the sequential engine uses.
//
// The window is therefore not a correctness bound but an accuracy trade:
// cross-domain coherence actions land up to one window late, which
// perturbs the interleaving the way relaxed-synchronization simulators
// (Graphite, Sniper, Pac-Sim — see PAPERS.md) accept and bound by
// measurement. Accordingly its results are gated the way sampling is:
// TestPdesEquivalence and the harness's TestParallelEquivalence bound
// the per-VM deviation from the sequential engine, and runs are
// deterministic for a fixed (seed, Pdes) — domains, their
// event orders, the op-log merge and the barrier cadence are all
// reproducible, with no wall-clock input to any simulated value.
package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"consim/internal/cache"
	"consim/internal/coherence"
	"consim/internal/memctrl"
	"consim/internal/mesh"
	"consim/internal/sim"
	"consim/internal/vm"
	"consim/internal/workload"
)

// pdesWindow is the width, in cycles, of one parallel window. Windows
// far wider than the ~14-cycle true lookahead trade cross-domain
// timeliness for barrier amortization; TestPdesEquivalence holds this
// width to the accuracy bound.
const pdesWindow = sim.Cycle(16384)

// Event payload encoding: local core index << 1 | kind.
const (
	evIssue    = 0
	evComplete = 1
)

// Operation kinds in the per-domain replay log.
const (
	opFetch   = uint8(0)
	opUpgrade = uint8(1)
	opEvictL1 = uint8(2)
)

// pdesOp is one logged shared-tier transition, replayed on the spine at
// the window barrier.
type pdesOp struct {
	t      sim.Cycle
	addr   sim.Addr
	kind   uint8
	core   uint8
	vm     uint8
	region uint8 // footprint region of the missing block (opFetch)
	write  bool
}

// pdesPending is one core's in-flight miss: the fill the completion
// event installs.
type pdesPending struct {
	addr sim.Addr
	vmID int32
	st   cache.State
}

// PdesStats reports what the parallel engine did during a run; all
// fields are zero for the sequential engine.
type PdesStats struct {
	// Workers is the configured Pdes count.
	Workers int `json:"workers,omitempty"`
	// Windows counts barrier-to-barrier rounds.
	Windows uint64 `json:"windows,omitempty"`
	// StallSeconds is the wall time the spine spent waiting on worker
	// domains: the engine's load-imbalance gauge.
	StallSeconds float64 `json:"stall_seconds,omitempty"`
	// ApplySeconds is wall time spent in the serial barrier replay: the
	// Amdahl term that bounds scaling.
	ApplySeconds float64 `json:"apply_seconds,omitempty"`
}

// validatePdes rejects configurations the parallel engine cannot run
// soundly. Features that already own the run's engine choice (sampling,
// trace sources) are refused rather than silently degraded.
func (c Config) validatePdes() error {
	if c.Pdes < 0 {
		return fmt.Errorf("core: negative pdes worker count %d", c.Pdes)
	}
	if c.PdesPipeline {
		return fmt.Errorf("core: pdes window/replay pipelining was removed; leave PdesPipeline false")
	}
	if c.Pdes <= 1 {
		return nil
	}
	if c.Pdes > c.Cores {
		return fmt.Errorf("core: %d pdes workers exceed %d cores", c.Pdes, c.Cores)
	}
	if c.Sample.Enabled() {
		return fmt.Errorf("core: pdes and interval sampling are mutually exclusive engines")
	}
	if len(c.Sources) > 0 {
		return fmt.Errorf("core: pdes requires statistical generators, not trace sources")
	}
	return nil
}

// pdesDomain is one worker's partition of the machine: a set of active
// cores, their calendar, and private replicas of every contention
// tracker the in-window estimator charges.
type pdesDomain struct {
	id    int
	cores []int // physical core indices owned by this domain

	q       *sim.EventQueue
	now     sim.Cycle // time of the last event processed
	horizon sim.Cycle // exclusive upper bound of the current window

	// Contention-tracker replicas, re-based from the live models at
	// every barrier. The mesh model keeps no load state; its replica
	// only counts this domain's transfers.
	net      *mesh.Model
	mem      *memctrl.Mem
	bankBusy []sim.Cycle
	dirBusy  []sim.Cycle

	// prev* re-base the replica's cumulative counters so barrier folds
	// add exactly one window's traffic to the live totals.
	prevTransfers uint64
	prevHops      uint64
	prevMemReads  uint64
	prevMemWait   sim.Cycle

	// warm is the domain's in-window overlay of the frozen shared tier:
	// once a fetch or upgrade is estimated for a block, later estimates
	// in the same window see its effect (bank residency, directory
	// sharers, dir-cache warmth) instead of re-paying the cold path the
	// sequential engine pays only once. Cleared at every barrier, after
	// which the replayed live tier carries the state.
	warm map[sim.Addr]coherence.Entry

	stats    []vm.Stats // in-window per-VM scratch (Refs/PrivMisses/Upgrades/MissLatSum)
	touch    [][]uint64 // per-VM footprint shadow bitmaps, folded via MergeTouched
	pend     []pdesPending
	ops      []pdesOp
	switches uint64
}

// pdesEngine owns the worker domains of one System.
type pdesEngine struct {
	s     *System
	stats PdesStats

	domains []*pdesDomain

	// Execution decouples from partition: the domain count (result-
	// visible; it fixes the core partition and the merge order) comes
	// from cfg.Pdes, while the executor count adapts to the host. Worker
	// goroutine w runs domains w+1, w+1+execs, ...; the spine runs
	// domains 0, execs, 2*execs, ... inline. On a single-CPU host execs
	// is 1 and no goroutines are spawned — same results, no spin-waste.
	execs int
	rings []*sim.TaskRing // one SPSC ring per worker (executors 1..execs-1)
	wseq  []uint32        // per-worker window sequence (spine-owned)
	wdone []atomic.Uint32 // per-worker completion, stored by the worker
	wg    sync.WaitGroup

	opIdx []int // reusable merge cursors for the barrier replay
}

// newPdesEngine builds the engine for s (cfg.Pdes > 1 validated).
// Worker goroutines start in start(), not here.
func newPdesEngine(s *System) *pdesEngine {
	cfg := &s.cfg
	e := &pdesEngine{s: s}

	// Partition the ACTIVE cores round-robin across up to Pdes domains.
	// Workloads that light up few cores (the isolation sweeps) would
	// leave VM- or group-contiguous partitions empty; round-robin keeps
	// every domain loaded whenever there are at least Pdes active cores.
	var active []int
	for c := range s.cores {
		if s.cores[c].active {
			active = append(active, c)
		}
	}
	nd := cfg.Pdes
	if nd > len(active) {
		nd = len(active)
	}
	e.stats.Workers = cfg.Pdes
	for d := 0; d < nd; d++ {
		e.domains = append(e.domains, &pdesDomain{id: d})
	}
	for i, c := range active {
		d := e.domains[i%nd]
		d.cores = append(d.cores, c)
	}
	for _, d := range e.domains {
		d.q = sim.NewEventQueue(len(d.cores))
		d.net = mesh.NewModel(s.geom, cfg.PipeStages)
		d.mem = memctrl.New(cfg.Mem)
		d.bankBusy = make([]sim.Cycle, len(s.bankBusy))
		d.dirBusy = make([]sim.Cycle, len(s.dirBusy))
		d.warm = make(map[sim.Addr]coherence.Entry, 1<<10)
		d.stats = make([]vm.Stats, len(s.vms))
		d.pend = make([]pdesPending, len(d.cores))
		d.touch = make([][]uint64, len(s.vms))
		for v, m := range s.vms {
			d.touch[v] = make([]uint64, m.TouchWords())
		}
	}

	// Detach the workload generators' shared cursors: threads of one VM
	// can land in different domains, and the per-thread replicas keep
	// concurrent ring refills race-free while preserving each cursor's
	// collective pacing (see workload.DetachCursors).
	for _, m := range s.vms {
		if g, ok := m.Gen.(*workload.Generator); ok {
			g.DetachCursors()
		}
	}

	e.execs = runtime.GOMAXPROCS(0)
	if e.execs > len(e.domains) {
		e.execs = len(e.domains)
	}
	if e.execs < 1 {
		e.execs = 1
	}
	e.rings = make([]*sim.TaskRing, e.execs-1)
	for w := range e.rings {
		e.rings[w] = sim.NewTaskRing(4)
	}
	e.wseq = make([]uint32, e.execs-1)
	e.wdone = make([]atomic.Uint32, e.execs-1)
	e.opIdx = make([]int, len(e.domains))
	return e
}

// start seeds every domain calendar with its cores' first issue events,
// syncs the replicas to the live contention state, and launches the
// worker goroutines.
func (e *pdesEngine) start() {
	s := e.s
	for _, d := range e.domains {
		for li := range d.cores {
			d.q.Push(0, li<<1|evIssue)
		}
		copy(d.bankBusy, s.bankBusy)
		copy(d.dirBusy, s.dirBusy)
		d.mem.SyncBusy(s.mem)
		d.rebase()
	}
	for w := range e.rings {
		e.wg.Add(1)
		go e.workerLoop(w)
	}
}

// stop drains and joins the workers.
func (e *pdesEngine) stop() {
	for _, r := range e.rings {
		r.Close()
	}
	e.wg.Wait()
}

// workerLoop runs executor w+1's domain stripe: park on the ring, drain
// one window per posted sequence number, publish completion through the
// worker's done slot.
func (e *pdesEngine) workerLoop(w int) {
	defer e.wg.Done()
	ring := e.rings[w]
	for {
		seq, ok := ring.Pop()
		if !ok {
			return
		}
		for i := w + 1; i < len(e.domains); i += e.execs {
			e.domains[i].run(e.s)
		}
		e.wdone[w].Store(seq)
	}
}

// runUntil advances the machine window by window until every active
// core has issued at least target references. The check runs at
// barriers only, so runs overshoot by at most one window's issue rate —
// deterministically, since the window schedule is deterministic.
func (e *pdesEngine) runUntil(target uint64) {
	for !e.reached(target) {
		h := e.nextHorizon()
		for _, d := range e.domains {
			d.horizon = h
		}
		e.post()
		e.runSpineStripe()
		e.awaitWorkers()
		e.barrier()
	}
	// Fold the cumulative footprint shadows so TouchedBlocks is exact at
	// phase ends. MergeTouched is idempotent, so folding the same shadow
	// again after the next phase is safe.
	for v, m := range e.s.vms {
		for _, d := range e.domains {
			m.MergeTouched(d.touch[v])
		}
	}
}

// post publishes one window to every worker ring.
func (e *pdesEngine) post() {
	for w := range e.rings {
		e.wseq[w]++
		e.rings[w].Push(e.wseq[w])
	}
}

// runSpineStripe drains the spine's own domain stripe of the window.
func (e *pdesEngine) runSpineStripe() {
	for i := 0; i < len(e.domains); i += e.execs {
		e.domains[i].run(e.s)
	}
}

// reached reports whether every active core has issued target refs.
func (e *pdesEngine) reached(target uint64) bool {
	for _, d := range e.domains {
		for _, c := range d.cores {
			if e.s.cores[c].refs < target {
				return false
			}
		}
	}
	return true
}

// nextHorizon returns the exclusive bound of the next window: one
// window width past the earliest pending event anywhere. Every pending
// event is at or past the previous horizon, so horizons strictly
// advance.
func (e *pdesEngine) nextHorizon() sim.Cycle {
	first := true
	var min sim.Cycle
	for _, d := range e.domains {
		if d.q.Len() == 0 {
			continue
		}
		t, _ := d.q.Peek()
		if first || t < min {
			min, first = t, false
		}
	}
	return min + pdesWindow
}

// awaitWorkers spins the spine until every worker has drained its
// stripe of the posted window, yielding so the owing workers can run.
func (e *pdesEngine) awaitWorkers() {
	for w := range e.rings {
		if e.wdone[w].Load() == e.wseq[w] {
			continue
		}
		start := time.Now()
		for e.wdone[w].Load() != e.wseq[w] {
			runtime.Gosched()
		}
		e.stats.StallSeconds += time.Since(start).Seconds()
	}
}

// run drains one domain's calendar up to (exclusive) its horizon.
func (d *pdesDomain) run(s *System) {
	h := d.horizon
	for d.q.Len() > 0 {
		t, payload := d.q.Peek()
		if t >= h {
			break
		}
		d.q.Pop()
		d.now = t
		li := payload >> 1
		if payload&1 == evIssue {
			d.issue(s, t, li)
		} else {
			d.complete(s, t, li)
		}
	}
}

// issue executes one core's next reference: draw it, walk the private
// hierarchy, then either finish immediately (hit) or schedule the
// completion one estimated miss latency out.
func (d *pdesDomain) issue(s *System, t sim.Cycle, li int) {
	c := d.cores[li]
	cs := &s.cores[c]
	if cs.cur >= len(cs.queue) {
		cs.cur = 0
	}
	run := cs.queue[cs.cur]
	vmID := run.vmID
	m := s.vms[vmID]

	acc := m.Gen.Next(run.thread)
	blk := acc.Block
	d.touch[vmID][blk/64] |= 1 << (blk % 64)
	addr := m.AddrOf(blk)
	st := &d.stats[vmID]
	st.Refs++
	cs.refs++

	lat, fillSt, miss := d.walk(s, t, c, vmID, addr, acc.Write)
	if miss {
		st.PrivMisses++
		st.MissLatSum += lat
		d.ops = append(d.ops, pdesOp{
			t: t, addr: addr,
			kind: opFetch, core: uint8(c), vm: uint8(vmID),
			region: uint8(s.regions[vmID].Of(blk)), write: acc.Write,
		})
		d.pend[li] = pdesPending{addr: addr, vmID: int32(vmID), st: fillSt}
		d.q.Push(t+lat, li<<1|evComplete)
		return
	}
	d.finish(s, t+lat, li, c, vmID)
}

// complete installs an in-flight miss's fill into the issuing core's
// private hierarchy and schedules the next issue.
func (d *pdesDomain) complete(s *System, t sim.Cycle, li int) {
	c := d.cores[li]
	p := &d.pend[li]
	vtag := uint8(p.vmID)
	l1 := s.l1[c]
	if w1, ok := l1.Probe(p.addr); ok {
		// Already resident (a racing window re-filled it); only ever
		// raise the state.
		if p.st == cache.Modified {
			l1.SetState(w1, cache.Modified)
		}
	} else {
		victim, evicted, _ := l1.Insert(p.addr, p.st, vtag)
		if evicted {
			d.ops = append(d.ops, pdesOp{
				t: t, addr: victim.Tag, kind: opEvictL1,
				core: uint8(c), vm: vtag, write: victim.State == cache.Modified,
			})
			s.l0[c].Invalidate(victim.Tag)
		}
	}
	s.fillL0(c, p.addr, p.st, vtag)
	d.finish(s, t, li, c, int(p.vmID))
}

// finish draws the think time, applies over-commit rotation, and
// schedules the core's next issue. Mirrors the sequential loop's tail;
// the RNG stream is consumed one draw per reference in the same order,
// so a fixed partition replays fixed streams.
func (d *pdesDomain) finish(s *System, at sim.Cycle, li, c, vmID int) {
	cs := &s.cores[c]
	next := at + sim.Cycle(cs.rng.Uint64n(s.thinkOf[vmID]))
	if len(cs.queue) > 1 && next >= cs.sliceEnd {
		cs.cur = (cs.cur + 1) % len(cs.queue)
		next += switchCost
		cs.sliceEnd = next + s.cfg.TimesliceCycles
		d.switches++
	}
	d.q.Push(next, li<<1|evIssue)
}

// walk is the in-window private-hierarchy walk: the parallel engine's
// analogue of accessTM. Hits (the overwhelming majority) execute
// completely; misses and coherence upgrades are classified against the
// frozen shared tier, charged a replica-estimated latency, and logged
// for barrier replay. It returns (latency, fill state, missed).
func (d *pdesDomain) walk(s *System, t sim.Cycle, c, vmID int, addr sim.Addr, write bool) (sim.Cycle, cache.State, bool) {
	l0 := s.l0[c]
	if w0, ok := l0.Lookup(addr); ok {
		if !write {
			return DefaultL0Latency, 0, false
		}
		l1 := s.l1[c]
		if w1, ok1 := l1.Probe(addr); ok1 {
			switch l1.State(w1) {
			case cache.Modified:
				l0.SetState(w0, cache.Modified)
				return DefaultL0Latency, 0, false
			case cache.Exclusive:
				// Silent E->M upgrade; ownership recorded at the barrier.
				l1.SetState(w1, cache.Modified)
				l0.SetState(w0, cache.Modified)
				d.logUpgrade(t, c, vmID, addr)
				return DefaultL0Latency, 0, false
			default:
				lat := d.estimateUpgrade(s, t, c, addr)
				d.stats[vmID].Upgrades++
				l1.SetState(w1, cache.Modified)
				l0.SetState(w0, cache.Modified)
				d.logUpgrade(t, c, vmID, addr)
				return lat, 0, false
			}
		}
		// Cross-window L0/L1 divergence (the sequential engine asserts
		// inclusion here); drop the orphan and take the miss path.
		l0.Invalidate(addr)
	}

	l1 := s.l1[c]
	vtag := uint8(vmID)
	if w1, ok := l1.Lookup(addr); ok {
		switch {
		case !write:
			s.fillL0(c, addr, l1.State(w1), vtag)
			return DefaultL1Latency, 0, false
		case l1.State(w1) == cache.Modified:
			s.fillL0(c, addr, cache.Modified, vtag)
			return DefaultL1Latency, 0, false
		case l1.State(w1) == cache.Exclusive:
			l1.SetState(w1, cache.Modified)
			s.fillL0(c, addr, cache.Modified, vtag)
			d.logUpgrade(t, c, vmID, addr)
			return DefaultL1Latency, 0, false
		default:
			lat := d.estimateUpgrade(s, t, c, addr)
			d.stats[vmID].Upgrades++
			l1.SetState(w1, cache.Modified)
			s.fillL0(c, addr, cache.Modified, vtag)
			d.logUpgrade(t, c, vmID, addr)
			return lat, 0, false
		}
	}

	lat, fillSt := d.estimateFetch(s, t, c, addr, write)
	return lat, fillSt, true
}

// logUpgrade appends a store-exclusivity operation for barrier replay.
func (d *pdesDomain) logUpgrade(t sim.Cycle, c, vmID int, addr sim.Addr) {
	d.ops = append(d.ops, pdesOp{
		t: t, addr: addr, kind: opUpgrade,
		core: uint8(c), vm: uint8(vmID), write: true,
	})
}

// Replica-charging timing helpers: same arithmetic as the System's
// bankAccess/dirVisit/route, against this domain's private trackers.

func (d *pdesDomain) route(at sim.Cycle, from, to, flits int) sim.Cycle {
	if from == to {
		return at
	}
	return d.net.Latency(at, from, to, flits)
}

func (d *pdesDomain) bankAccess(at sim.Cycle, node int) sim.Cycle {
	start := sim.Max(at, d.bankBusy[node])
	d.bankBusy[node] = start + bankOccupancy
	return start + DefaultLLCLatency
}

func (d *pdesDomain) dirVisit(at sim.Cycle, home int) sim.Cycle {
	start := sim.Max(at, d.dirBusy[home])
	d.dirBusy[home] = start + dirOccupancy
	return start + dirLatency
}

// probeEntry snapshots the frozen directory entry for addr (a zero
// no-sharer entry when absent).
func (d *pdesDomain) probeEntry(s *System, addr sim.Addr) coherence.Entry {
	if pe, ok := s.dir.Probe(addr); ok {
		return *pe
	}
	return coherence.NewEntry()
}

// warmView returns the estimator's view of addr's shared-tier state: the
// in-window overlay when this domain already touched the block this
// window (so repeats see a warmed tier, as they would sequentially), the
// frozen live tier otherwise. The returned bools are (bank g holds the
// line, the view came from the overlay — overlay blocks are dir-cache
// warm by construction).
func (d *pdesDomain) warmView(s *System, addr sim.Addr, g int) (coherence.Entry, bool, bool) {
	if w, ok := d.warm[addr]; ok {
		return w, w.HasL2(g), true
	}
	ent := d.probeEntry(s, addr)
	_, bHit := s.banks[g].Probe(addr)
	return ent, bHit, false
}

// estimateFetch mirrors fetchTM's timing against the frozen shared tier
// and the domain's contention replicas, and derives the private fill
// state the completion event will install. Returns (latency, fill
// state).
func (d *pdesDomain) estimateFetch(s *System, now sim.Cycle, c int, addr sim.Addr, write bool) (sim.Cycle, cache.State) {
	g := s.groupOf(c)
	bnode := s.bankNode(g, addr)
	t := d.bankAccess(now, bnode)

	ent, bHit, warmed := d.warmView(s, addr, g)

	if bHit {
		if o := int(ent.L1Owner); o >= 0 && o != c {
			at := d.route(t, bnode, o, CtrlFlits) + DefaultL1Latency
			t = d.route(at, o, c, DataFlits)
		}
	} else {
		home := s.dir.Home(addr)
		dirHit := warmed || s.dirCache.Peek(home, addr)
		dirT := d.route(t, bnode, home, CtrlFlits)
		dirT = d.dirVisit(dirT, home)
		onChipDirT := dirT
		if !dirHit {
			onChipDirT += s.cfg.Mem.Latency
		}
		switch {
		case ent.L1Owner >= 0 && int(ent.L1Owner) != c:
			o := int(ent.L1Owner)
			at := d.route(onChipDirT, home, o, CtrlFlits) + DefaultL1Latency
			t = d.route(at, o, c, DataFlits)
		case ent.L2Owner >= 0 && int(ent.L2Owner) != g:
			sn := s.bankNode(int(ent.L2Owner), addr)
			at := d.route(onChipDirT, home, sn, CtrlFlits)
			at = d.bankAccess(at, sn)
			t = d.route(at, sn, c, DataFlits)
		case ent.OtherL2(g) >= 0:
			sn := s.bankNode(ent.OtherL2(g), addr)
			at := d.route(onChipDirT, home, sn, CtrlFlits)
			at = d.bankAccess(at, sn)
			t = d.route(at, sn, c, DataFlits)
		default:
			mn := s.mem.Node(addr)
			at := d.route(dirT, home, mn, CtrlFlits)
			at = d.mem.Read(at, addr)
			t = d.route(at, mn, c, DataFlits)
		}
	}

	if write {
		l2 := ent.L2Sharers | 1<<uint(g)
		if bits.OnesCount64(l2) > 1 || ent.L1Sharers&^(1<<uint(c)) != 0 {
			t = d.estimateInvalidate(s, t, c, addr, &ent)
		}
	}

	var fillSt cache.State
	switch {
	case write:
		fillSt = cache.Modified
	case ent.L1Sharers&^(1<<uint(c)) == 0 && ent.L2Sharers&^(1<<uint(g)) == 0 && !ent.Dirty():
		fillSt = cache.Exclusive
	default:
		fillSt = cache.Shared
	}

	// Fold the fetch's effect into the overlay so later in-window
	// estimates see a warmed tier.
	if write {
		ent = coherence.Entry{L1Sharers: 1 << uint(c), L2Sharers: 1 << uint(g), L1Owner: int8(c), L2Owner: int8(g)}
	} else {
		ent.AddL1(c)
		ent.AddL2(g)
		if fillSt == cache.Exclusive {
			ent.L1Owner, ent.L2Owner = int8(c), int8(g)
		}
	}
	d.warm[addr] = ent
	return t - now, fillSt
}

// estimateUpgrade mirrors the store-upgrade latency (home visit plus
// slowest invalidation ack) against the frozen directory entry.
func (d *pdesDomain) estimateUpgrade(s *System, now sim.Cycle, c int, addr sim.Addr) sim.Cycle {
	g := s.groupOf(c)
	ent, _, _ := d.warmView(s, addr, g)
	t := d.estimateInvalidate(s, now, c, addr, &ent) - now
	d.warm[addr] = coherence.Entry{L1Sharers: 1 << uint(c), L2Sharers: 1 << uint(g), L1Owner: int8(c), L2Owner: int8(g)}
	return t
}

// estimateInvalidate mirrors invalidateOthersTM's timing: route to the
// home, visit the directory, fan invalidations out to every frozen
// sharer, and return the slowest ack's absolute arrival time.
func (d *pdesDomain) estimateInvalidate(s *System, at sim.Cycle, c int, addr sim.Addr, ent *coherence.Entry) sim.Cycle {
	home := s.dir.Home(addr)
	t := d.route(at, c, home, CtrlFlits)
	_, warmed := d.warm[addr]
	dirHit := warmed || s.dirCache.Peek(home, addr)
	t = d.dirVisit(t, home)
	if !dirHit {
		t += s.cfg.Mem.Latency
	}
	g := s.groupOf(c)
	ackT := t
	for m := ent.L1Sharers &^ (1 << uint(c)); m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		a := d.route(t, home, o, CtrlFlits)
		a = d.route(a, o, c, CtrlFlits)
		ackT = sim.Max(ackT, a)
	}
	for m := ent.L2Sharers &^ (1 << uint(g)); m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		node := s.bankNode(b, addr)
		a := d.route(t, home, node, CtrlFlits)
		a = d.route(a, node, c, CtrlFlits)
		ackT = sim.Max(ackT, a)
	}
	if ackT == t {
		ackT = d.route(t, home, c, CtrlFlits)
	}
	return ackT
}

// applyOps replays every domain's operation log against the live shared
// tier in one deterministic total order: ascending time, ties broken by
// domain index. Per-domain logs are already time-sorted (events pop in
// order), so this is a zero-allocation k-way merge.
func (e *pdesEngine) applyOps() {
	s := e.s
	idx := e.opIdx
	for i := range idx {
		idx[i] = 0
	}
	for {
		best := -1
		var bt sim.Cycle
		for i, d := range e.domains {
			if idx[i] >= len(d.ops) {
				continue
			}
			if t := d.ops[idx[i]].t; best < 0 || t < bt {
				best, bt = i, t
			}
		}
		if best < 0 {
			break
		}
		op := &e.domains[best].ops[idx[best]]
		idx[best]++
		s.now = op.t
		switch op.kind {
		case opFetch:
			s.applyFetch(op)
		case opUpgrade:
			s.applyUpgrade(op)
		default:
			s.applyEvictL1(op)
		}
	}
	for _, d := range e.domains {
		d.ops = d.ops[:0]
	}
}

// applyFetch replays one private miss's shared-tier transitions: bank
// lookup/insert, directory update, supplier classification (which is
// where the C2C/memory counters are decided — against live state, not
// the frozen view the estimate used). The issuing core's private fill
// happened in-window at the completion event, so no private caches are
// touched except to repair a stale Exclusive guess.
func (s *System) applyFetch(op *pdesOp) {
	c := int(op.core)
	vmID := int(op.vm)
	g := s.groupOf(c)
	addr := op.addr
	vtag := uint8(vmID)
	st := &s.vms[vmID].Stats
	bank := s.banks[g]

	bw, bHit := bank.Lookup(addr)
	e := s.dir.Get(addr)
	if bHit {
		e.AddL2(g) // repair: a racing window's view may have diverged
		if o := int(e.L1Owner); o >= 0 && o != c {
			s.downgradeOwner(o, addr, e)
			st.C2CDirty++
		}
	} else {
		st.LLCMisses++
		st.RegionMisses[op.region]++
		home := s.dir.Home(addr)
		s.dirCache.Access(home, addr)
		switch o := int(e.L1Owner); {
		case o >= 0 && o != c:
			s.downgradeOwner(o, addr, e)
			st.C2CDirty++
		case e.L2Owner >= 0 && int(e.L2Owner) != g:
			b := int(e.L2Owner)
			if sw, ok := s.banks[b].Probe(addr); ok {
				if s.banks[b].State(sw) == cache.Modified {
					s.banks[b].SetState(sw, cache.Owned)
				}
				st.C2CDirty++
			} else {
				e.L2Owner = -1
				st.MemReads++
			}
		case e.OtherL2(g) >= 0:
			st.C2CClean++
		default:
			st.MemReads++
		}
		bankState := cache.Shared
		if !e.OnChip() {
			bankState = cache.Exclusive
		}
		victim, evicted, nw := bank.Insert(addr, bankState, vtag)
		bw = nw
		if evicted {
			evictBankLineTM(s, applyTiming, g, victim)
			e = s.dir.Get(addr)
		}
		e.AddL2(g)
	}

	if op.write && (e.L2Count() > 1 || e.L1Sharers&^(1<<uint(c)) != 0) {
		_, e = invalidateOthersTM(s, applyTiming, op.t, c, addr, st)
	}
	s.demoteExclusives(c, addr, e)
	e.AddL1(c)
	if op.write {
		e.L1Owner = int8(c)
		e.L2Owner = int8(g)
		bank.SetState(bw, cache.Modified)
	} else if m := e.L1Sharers &^ (1 << uint(c)); m != 0 || e.Dirty() || e.L2Count() > 1 {
		// The in-window fill may have guessed Exclusive from a view that
		// a racing domain has since invalidated; demote our own copies
		// so silent E->M upgrades stay coherent.
		if w, ok := s.l1[c].Probe(addr); ok && s.l1[c].State(w) == cache.Exclusive {
			s.l1[c].SetState(w, cache.Shared)
		}
		if w, ok := s.l0[c].Probe(addr); ok && s.l0[c].State(w) == cache.Exclusive {
			s.l0[c].SetState(w, cache.Shared)
		}
	}
}

// applyUpgrade replays a store upgrade (silent E->M or Shared->M): the
// issuing core took ownership in-window; here the directory, the other
// sharers and the group bank catch up. A remote write that applied
// earlier in the merge may have invalidated the line from under the
// upgrade — then the core's copy is gone and the op is stale.
func (s *System) applyUpgrade(op *pdesOp) {
	c := int(op.core)
	addr := op.addr
	w1, ok := s.l1[c].Probe(addr)
	if !ok {
		return
	}
	st := &s.vms[int(op.vm)].Stats
	e := s.dir.Get(addr)
	if e.L2Count() > 1 || e.L1Sharers&^(1<<uint(c)) != 0 {
		_, e = invalidateOthersTM(s, applyTiming, op.t, c, addr, st)
	}
	e.AddL1(c)
	e.L1Owner = int8(c)
	g := s.groupOf(c)
	if bw, okb := s.banks[g].Probe(addr); okb {
		s.banks[g].SetState(bw, cache.Modified)
		e.L2Owner = int8(g)
	}
	s.l1[c].SetState(w1, cache.Modified)
	if w0, ok0 := s.l0[c].Probe(addr); ok0 {
		s.l0[c].SetState(w0, cache.Modified)
	}
}

// applyEvictL1 replays an in-window L1 eviction: dirty victims fold
// into the group bank and the directory drops the private sharer —
// exactly the sequential evictPrivateVictim, driven from the log.
func (s *System) applyEvictL1(op *pdesOp) {
	st := cache.Shared
	if op.write {
		st = cache.Modified
	}
	s.evictPrivateVictim(int(op.core), cache.Line{Tag: op.addr, State: st})
}

// foldWindow folds every domain's window into the live machine:
// contention replicas (busy-until by max, counters by delta) and per-VM
// scratch stats. Returns the latest domain clock.
func (e *pdesEngine) foldWindow() sim.Cycle {
	s := e.s
	var maxT sim.Cycle
	for _, d := range e.domains {
		for i, b := range d.bankBusy {
			if b > s.bankBusy[i] {
				s.bankBusy[i] = b
			}
		}
		for i, b := range d.dirBusy {
			if b > s.dirBusy[i] {
				s.dirBusy[i] = b
			}
		}
		s.mem.FoldBusyMax(d.mem)
		s.net.Transfers += d.net.Transfers - d.prevTransfers
		s.net.HopsSum += d.net.HopsSum - d.prevHops
		s.mem.Reads += d.mem.Reads - d.prevMemReads
		s.mem.WaitSum += d.mem.WaitSum - d.prevMemWait
		for v := range d.stats {
			sv := &s.vms[v].Stats
			dv := &d.stats[v]
			sv.Refs += dv.Refs
			sv.PrivMisses += dv.PrivMisses
			sv.Upgrades += dv.Upgrades
			sv.MissLatSum += dv.MissLatSum
			*dv = vm.Stats{}
		}
		s.Switches += d.switches
		d.switches = 0
		if d.now > maxT {
			maxT = d.now
		}
	}
	return maxT
}

// barrier folds every domain's window into the live machine, replays
// the merged op log, then resyncs the replicas for the next window.
func (e *pdesEngine) barrier() {
	s := e.s
	maxT := e.foldWindow()

	applyStart := time.Now()
	e.applyOps()
	e.stats.ApplySeconds += time.Since(applyStart).Seconds()
	e.stats.Windows++

	// Commit the window's clock (maxT is at or past every logged op
	// time) and global ref count.
	if maxT > s.now {
		s.now = maxT
	}
	var refs uint64
	for c := range s.cores {
		refs += s.cores[c].refs
	}
	s.globalRefs = refs

	// Re-base every domain's contention replicas from the folded live
	// state and clear the warm overlay: the replayed live tier now
	// carries its effects.
	for _, d := range e.domains {
		copy(d.bankBusy, s.bankBusy)
		copy(d.dirBusy, s.dirBusy)
		d.mem.SyncBusy(s.mem)
		d.rebase()
		clear(d.warm)
	}

	if s.hooks != nil {
		s.publishLive()
	}
}

// rebase records the replica counters' current values so the next
// barrier folds only the coming window's deltas.
func (d *pdesDomain) rebase() {
	d.prevTransfers = d.net.Transfers
	d.prevHops = d.net.HopsSum
	d.prevMemReads = d.mem.Reads
	d.prevMemWait = d.mem.WaitSum
}
