package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"time"

	"consim"
	"consim/internal/cache"
	"consim/internal/coherence"
	"consim/internal/core"
	"consim/internal/memctrl"
	"consim/internal/mesh"
	"consim/internal/sim"
	"consim/internal/vm"
)

// The staged replay gives host time per operation for each layer,
// measured from outside: it builds the same layer objects a System
// builds (same geometry, same scale), draws the workload's own
// reference stream from the System's generators, and pushes it through
// each layer's public functions one stage at a time, timing whole
// batches so the clock costs under 1% of a span.
//
// It is a cost probe, not a second simulator. It keeps just enough of
// the protocol (sharer sets, and stores dropping other copies) for each
// layer to see this workload's address stream with a hit/miss mix close
// to the real one; it has no timing, no ownership, no dirty forwarding
// and no back-invalidation. Its own miss ratios are
// reported beside the observed run's so the drift is visible.

// Stage names; spans carry them and the ledger is keyed by them.
const (
	stageWorkload = "workload.next"
	stageEventQ   = "sim.eventq"
	stagePrivate  = "cache.private"
	stageLLC      = "cache.llc"
	stageDir      = "coherence.dir"
	stageDirCache = "coherence.dircache"
	stageMesh     = "mesh.latency"
	stageMem      = "memctrl"
)

var stageNames = []string{stageWorkload, stageEventQ, stagePrivate, stageLLC, stageDir, stageDirCache, stageMesh, stageMem}

// replayBatch is the number of references drawn per batch. Downstream
// stages see only the misses of the stage before, so they run when
// flushAt events have queued up (or at the end), not once per batch:
// on a workload whose LLC misses are 1% of references a per-batch span
// would time a few dozen operations against the clock's own cost.
const (
	replayBatch = 4096
	flushAt     = 2048
)

// span is one timed stage execution. Parent is the index of the batch
// span that caused it (-1 for a batch span itself).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// event is one unit of work handed from a stage to the next.
type event struct {
	addr  sim.Addr
	kind  uint8
	core  uint8
	vm    uint8
	group uint8 // bank group of an LLC victim; supplier group of an evC2C
	write bool
}

// Event kinds, in the order the stages introduce them.
const (
	evPrivMiss  uint8 = iota // reference missed L0 and L1
	evStore                  // store hit a private line not held Modified
	evL1Victim               // line left a core's L1
	evLLCHit                 // private miss hit its bank
	evLLCMiss                // private miss missed its bank
	evLLCVictim              // line left bank group (write: it was dirty)
	evMemRead                // LLC miss nobody on chip could supply
	evC2C                    // LLC miss supplied by another bank group
	evUpgrade                // store to a line other cores share: exclusivity through the home node
	evWriteback              // dirty LLC victim retired to memory
)

// stageCost accumulates one stage's host time and operation count.
type stageCost struct {
	ns  int64
	ops uint64
}

func (c stageCost) nsPerOp() float64 { return ratio(float64(c.ns), float64(c.ops)) }

// probe is what the replay measures: each stage's accumulated cost and
// the spans behind it. One probe outlives the replays that feed it, so
// a short workload can be replayed from cold several times over.
type probe struct {
	cost  map[string]*stageCost
	spans []span
	epoch time.Time
}

func newProbe() *probe {
	p := &probe{cost: make(map[string]*stageCost, len(stageNames)), epoch: time.Now()}
	for _, n := range stageNames {
		p.cost[n] = &stageCost{}
	}
	return p
}

func (p *probe) now() int64 { return time.Since(p.epoch).Nanoseconds() }

// writeSpans dumps the recorded spans as a JSON array.
func (p *probe) writeSpans(path string) error {
	buf, err := json.Marshal(p.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// replay holds one pass's layer objects and the queues between stages.
type replay struct {
	*probe
	cfg consim.Config

	vms    []*vm.VM
	active []binding // one per active core, in core order

	l0, l1, banks []*cache.Cache
	dir           *coherence.Directory
	dirCache      *coherence.DirCache
	net           *mesh.Model
	mem           *memctrl.Mem
	q             *sim.EventQueue
	rng           *sim.RNG

	// Simulated-time pacing, taken from a finished run of the workload:
	// the machine advances cyclesPerRef per reference, and a private miss
	// reschedules its core missLat cycles ahead.
	cyclesPerRef float64
	missLat      sim.Cycle
	thinkOf      []uint64 // per-VM think-time draw range, as the engine draws it

	refs  []event     // the batch being drawn
	lat   []sim.Cycle // per-reference reschedule distance for the event-queue stage
	qLLC  []event     // private stage -> LLC stage
	qDir  []event     // LLC stage -> directory stage
	qTail []event     // directory stage -> dircache, mesh and memctrl stages
	done  uint64      // references drawn so far
	tailT float64     // simulated time the tail stages have been paced up to

	batch int // index of the current batch span
}

// binding is the thread a core runs.
type binding struct {
	core, vm, thread int
}

// scaledBytes mirrors core.Config's capacity scaling: divide by the
// scale, floor at 16 lines, round down to a power-of-two line count.
func scaledBytes(full, scale int) int {
	lines := full / scale / sim.LineBytes
	if lines < 16 {
		lines = 16
	}
	p := 1
	for p*2 <= lines {
		p *= 2
	}
	return p * sim.LineBytes
}

// newReplay builds the layers for cfg and borrows the reference streams
// and thread placement of a freshly built System. paced is a finished
// run of the same workload, for the simulated-time pacing.
func newReplay(p *probe, cfg consim.Config, paced consim.Result) (*replay, error) {
	// The streams and the placement are the workload's; its engine is
	// not, and an engine's workers must not be built for a run that never
	// starts.
	cfg.Obs = nil
	cfg.Pdes, cfg.PdesReplayWorkers, cfg.PdesPipeline = 0, 0, false
	cfg.Sample = consim.SampleConfig{}
	sys, err := consim.NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	cfg = sys.Config() // with the defaults NewSystem fills in
	netCfg := mesh.DefaultNetConfig(cfg.Cores)
	r := &replay{
		probe:    p,
		cfg:      cfg,
		vms:      sys.VMs(),
		dir:      coherence.NewDirectory(cfg.Cores),
		dirCache: coherence.NewDirCache(cfg.Cores, coherence.DirCacheConfig{Entries: cfg.DirCacheEntries, Assoc: 8}),
		net:      mesh.NewModel(netCfg.Geometry, cfg.PipeStages),
		mem:      memctrl.New(cfg.Mem),
		q:        sim.NewEventQueue(cfg.Cores),
		rng:      sim.NewRNG(cfg.Seed ^ 0x5eed),
		refs:     make([]event, replayBatch),
		lat:      make([]sim.Cycle, replayBatch),
	}
	llcBytes := cfg.LLCBytes
	if llcBytes == 0 {
		llcBytes = core.DefaultLLCBytes
	}
	for i := 0; i < cfg.Cores; i++ {
		r.l0 = append(r.l0, cache.New(cache.Config{SizeBytes: scaledBytes(core.DefaultL0Bytes, cfg.Scale), Assoc: 2, Latency: core.DefaultL0Latency}))
		r.l1 = append(r.l1, cache.New(cache.Config{SizeBytes: scaledBytes(core.DefaultL1Bytes, cfg.Scale), Assoc: 4, Latency: core.DefaultL1Latency}))
	}
	for g := 0; g < cfg.Groups(); g++ {
		r.banks = append(r.banks, cache.New(cache.Config{SizeBytes: scaledBytes(llcBytes/cfg.Cores*cfg.GroupSize, cfg.Scale), Assoc: 16, Latency: core.DefaultLLCLatency}))
	}
	byCore := make([]*binding, cfg.Cores)
	for v, threads := range sys.Assignment() {
		for t, c := range threads {
			if byCore[c] == nil { // the benchmark's workloads never over-commit
				byCore[c] = &binding{core: c, vm: v, thread: t}
			}
		}
	}
	for _, b := range byCore {
		if b != nil {
			r.active = append(r.active, *b)
			r.q.Push(0, b.core)
		}
	}
	for _, w := range cfg.Workloads {
		r.thinkOf = append(r.thinkOf, uint64(2*w.ThinkCycles)+1)
	}

	var refs, privMisses uint64
	var missLatSum sim.Cycle
	for _, v := range paced.VMs {
		refs += v.Stats.Refs
		privMisses += v.Stats.PrivMisses
		missLatSum += v.Stats.MissLatSum
	}
	r.cyclesPerRef = ratio(float64(paced.Cycles), float64(refs))
	r.missLat = sim.Cycle(ratio(float64(missLatSum), float64(privMisses)))
	return r, nil
}

// run replays up to maxRefs references, stopping early at the deadline,
// and flushes every queue before returning.
func (r *replay) run(maxRefs uint64, deadline time.Time) {
	for r.done < maxRefs && time.Now().Before(deadline) {
		r.step(false)
	}
	r.step(true)
}

// step draws and replays one batch. With last set it draws nothing and
// drains the queues instead.
func (r *replay) step(last bool) {
	start := r.now()
	r.batch = len(r.spans)
	r.spans = append(r.spans, span{Name: "batch", Start: start, Parent: -1})
	if !last {
		r.timed(stageWorkload, r.draw)
		r.timed(stagePrivate, r.private)
		r.drawThink()
		r.timed(stageEventQ, r.eventQueue)
		r.done += replayBatch
	}
	if n := len(r.qLLC); n >= flushAt || (last && n > 0) {
		r.timed(stageLLC, r.llc)
	}
	if n := len(r.qDir); n >= flushAt || (last && n > 0) {
		r.timed(stageDir, r.directory)
	}
	if n := len(r.qTail); n >= flushAt || (last && n > 0) {
		r.timed(stageDirCache, r.dirCaches)
		r.timed(stageMesh, r.meshLegs)
		r.timed(stageMem, r.memory)
		r.tailT = float64(r.done) * r.cyclesPerRef
		r.qTail = r.qTail[:0]
	}
	r.spans[r.batch].End = r.now()
}

// timed runs one stage inside a span and books its time and the number
// of layer operations it reports having performed.
func (r *replay) timed(name string, stage func() uint64) {
	start := r.now()
	ops := stage()
	end := r.now()
	c := r.cost[name]
	c.ns += end - start
	c.ops += ops
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: r.batch})
}

// draw fills the batch from the generators, cores taking turns.
func (r *replay) draw() uint64 {
	n := len(r.active)
	for i := range r.refs {
		b := &r.active[i%n]
		m := r.vms[b.vm]
		acc := m.Gen.Next(b.thread)
		r.refs[i] = event{addr: m.AddrOf(acc.Block), core: uint8(b.core), vm: uint8(b.vm), write: acc.Write}
	}
	return replayBatch
}

// private walks the batch through L0 then L1, filling on the way back
// as the access walk does, and queues the private misses, the stores
// that need more than a private hit, and the L1 victims for the LLC
// stage.
func (r *replay) private() uint64 {
	for i := range r.refs {
		ev := &r.refs[i]
		c := int(ev.core)
		l0, l1 := r.l0[c], r.l1[c]
		if w0, ok := l0.Lookup(ev.addr); ok {
			r.lat[i] = core.DefaultL0Latency
			if ev.write && l0.State(w0) != cache.Modified {
				// The walk's store-hit path: L1 holds the line too.
				if w1, ok := l1.Probe(ev.addr); ok {
					l1.SetState(w1, cache.Modified)
				}
				l0.SetState(w0, cache.Modified)
				r.queueStore(ev)
			}
			continue
		}
		if w1, ok := l1.Lookup(ev.addr); ok {
			r.lat[i] = core.DefaultL1Latency
			if ev.write && l1.State(w1) != cache.Modified {
				l1.SetState(w1, cache.Modified)
				r.queueStore(ev)
			}
			l0.InsertIfAbsent(ev.addr, l1.State(w1), ev.vm)
			continue
		}
		r.lat[i] = r.missLat
		miss := *ev
		miss.kind = evPrivMiss
		r.qLLC = append(r.qLLC, miss)
		st := fillState(ev.write)
		if victim, evicted, _ := l1.Insert(ev.addr, st, ev.vm); evicted {
			l0.Invalidate(victim.Tag)
			r.qLLC = append(r.qLLC, event{addr: victim.Tag, kind: evL1Victim, core: ev.core})
		}
		l0.InsertIfAbsent(ev.addr, st, ev.vm)
	}
	return replayBatch
}

func (r *replay) queueStore(ev *event) {
	st := *ev
	st.kind = evStore
	r.qLLC = append(r.qLLC, st)
}

func fillState(write bool) cache.State {
	if write {
		return cache.Modified
	}
	return cache.Shared
}

// drawThink adds the engine's think-time draw to each reference's
// reschedule distance. It runs outside any stage span: the draw is the
// engine's own work, not the event queue's.
func (r *replay) drawThink() {
	for i := range r.refs {
		r.lat[i] += sim.Cycle(r.rng.Uint64n(r.thinkOf[r.refs[i].vm]))
	}
}

// eventQueue pops the earliest core and reschedules it, once per
// reference, at the distances the batch produced.
func (r *replay) eventQueue() uint64 {
	for i := range r.refs {
		t, c := r.q.Pop()
		r.q.Push(t+r.lat[i], c)
	}
	return 2 * replayBatch
}

// llc looks each private miss up in its core's bank, installs it on a
// miss, and passes hits, misses and both kinds of victim on in order.
func (r *replay) llc() (lookups uint64) {
	for _, ev := range r.qLLC {
		if ev.kind != evPrivMiss {
			r.qDir = append(r.qDir, ev)
			continue
		}
		lookups++
		g := int(ev.core) / r.cfg.GroupSize
		bank := r.banks[g]
		if _, ok := bank.Lookup(ev.addr); ok {
			ev.kind = evLLCHit
			r.qDir = append(r.qDir, ev)
			continue
		}
		ev.kind = evLLCMiss
		r.qDir = append(r.qDir, ev)
		if victim, evicted, _ := bank.Insert(ev.addr, fillState(ev.write), ev.vm); evicted {
			r.qDir = append(r.qDir, event{addr: victim.Tag, kind: evLLCVictim, group: uint8(g), write: victim.State.Dirty()})
		}
	}
	r.qLLC = r.qLLC[:0]
	return lookups
}

// directory performs the table operations the access walk performs: a
// Get per private miss and per store that needs one, a probe-mutate-
// release per victim. It decides each LLC miss's supplier from the
// entry's bank sharers, gives a store exclusivity by dropping every
// other copy (the walk's invalidation loop), and queues the off-bank
// work for the tail stages.
func (r *replay) directory() uint64 {
	walks := uint64(len(r.qDir)) // every event costs one table walk
	for _, ev := range r.qDir {
		g := int(ev.core) / r.cfg.GroupSize
		switch ev.kind {
		case evLLCHit, evLLCMiss:
			e := r.dir.Get(ev.addr)
			if ev.kind == evLLCMiss {
				miss := ev
				if e.L2Count() > 0 && !e.HasL2(g) {
					miss.kind, miss.group = evC2C, uint8(e.OtherL2(g))
				} else {
					miss.kind = evMemRead
				}
				r.qTail = append(r.qTail, miss)
				e.AddL2(g)
			}
			if ev.write {
				r.takeExclusive(e, ev, g)
			}
			e.AddL1(int(ev.core))
		case evStore:
			r.takeExclusive(r.dir.Get(ev.addr), ev, g)
		case evL1Victim:
			if si, ok := r.dir.ProbeSlot(ev.addr); ok {
				r.dir.EntryAt(si).DropL1(int(ev.core))
				r.dir.ReleaseSlot(si)
			}
		case evLLCVictim:
			if si, ok := r.dir.ProbeSlot(ev.addr); ok {
				r.dir.EntryAt(si).DropL2(int(ev.group))
				r.dir.ReleaseSlot(si)
			}
			if ev.write {
				ev.kind = evWriteback
				r.qTail = append(r.qTail, ev)
			}
		}
	}
	r.qDir = r.qDir[:0]
	return walks
}

// takeExclusive gives core ev.core (in group g) the only copy of a line
// it stores to. With no other holder it is the protocol's silent
// Exclusive-to-Modified step; otherwise every other private and bank
// copy is dropped and the upgrade is queued for its home-node visit.
func (r *replay) takeExclusive(e *coherence.Entry, ev event, g int) {
	others := e.L1Sharers &^ (1 << ev.core)
	banks := e.L2Sharers &^ (1 << uint(g))
	if others == 0 && banks == 0 {
		return
	}
	for m := others; m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		r.l0[o].Invalidate(ev.addr)
		r.l1[o].Invalidate(ev.addr)
		e.DropL1(o)
	}
	for m := banks; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		r.banks[b].Invalidate(ev.addr)
		e.DropL2(b)
	}
	ev.kind = evUpgrade
	r.qTail = append(r.qTail, ev)
}

// dirCaches touches the home node's directory cache once per LLC miss
// and per upgrade.
func (r *replay) dirCaches() (accesses uint64) {
	for _, ev := range r.qTail {
		if ev.kind != evWriteback {
			r.dirCache.Access(r.dir.Home(ev.addr), ev.addr)
			accesses++
		}
	}
	return accesses
}

// bankNode is the mesh node of group g's slice for addr (the engine's
// interleaving of a group's capacity across its cores' nodes).
func (r *replay) bankNode(g int, addr sim.Addr) int {
	n := r.cfg.GroupSize
	return g*n + int(sim.BlockID(addr)%uint64(n))
}

// tailClock paces the tail stages through the simulated time that
// passed while their events queued up.
func (r *replay) tailClock() (start, step float64) {
	span := float64(r.done)*r.cyclesPerRef - r.tailT
	return r.tailT, span / float64(len(r.qTail)+1)
}

// meshLegs routes each LLC miss's three legs — bank to home, home to
// supplier, supplier to requester — and each upgrade's two, skipping a
// leg between a node and itself as the engine does.
func (r *replay) meshLegs() (legs uint64) {
	t, step := r.tailClock()
	leg := func(at sim.Cycle, from, to, flits int) sim.Cycle {
		if from == to {
			return at
		}
		legs++
		return r.net.Latency(at, from, to, flits)
	}
	for _, ev := range r.qTail {
		t += step
		if ev.kind == evWriteback {
			continue
		}
		req := int(ev.core)
		home := r.dir.Home(ev.addr)
		if ev.kind == evUpgrade {
			leg(leg(sim.Cycle(t), req, home, core.CtrlFlits), home, req, core.CtrlFlits)
			continue
		}
		supplier := r.mem.Node(ev.addr)
		if ev.kind == evC2C {
			supplier = r.bankNode(int(ev.group), ev.addr)
		}
		at := leg(sim.Cycle(t), r.bankNode(req/r.cfg.GroupSize, ev.addr), home, core.CtrlFlits)
		at = leg(at, home, supplier, core.CtrlFlits)
		leg(at, supplier, req, core.DataFlits)
	}
	return legs
}

// memory issues the demand reads and writebacks at the controllers.
func (r *replay) memory() (requests uint64) {
	t, step := r.tailClock()
	for _, ev := range r.qTail {
		t += step
		switch ev.kind {
		case evMemRead:
			r.mem.Read(sim.Cycle(t), ev.addr)
			requests++
		case evWriteback:
			r.mem.Writeback(sim.Cycle(t), ev.addr)
			requests++
		}
	}
	return requests
}

// missRatio returns misses/accesses summed over caches.
func missRatio(caches []*cache.Cache) float64 {
	var acc, miss uint64
	for _, c := range caches {
		a, _, m, _ := c.Counters()
		acc, miss = acc+a, miss+m
	}
	return ratio(float64(miss), float64(acc))
}
