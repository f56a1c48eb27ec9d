// Bank-group-sharded barrier replay for the -pdes engine.
//
// The serial applyOps (pdes.go) is the engine's Amdahl term: ~a third
// of -pdes wall time on the bench host. Its op stream is shardable
// because the shared tier is already partitioned by LLC bank group —
// but only conditionally: an op whose requester group hosts a VM that
// spans groups can touch another group's banks, private caches and
// directory entries through the coherence walk. newPdesEngine therefore
// classifies each group statically (groupLocal): a group is replay-
// local iff every VM with threads on its cores is wholly confined to
// it. VM address regions are disjoint by construction, so a local
// group's ops reference only blocks whose every sharer (core, bank,
// directory entry, per-VM Stats) lives inside that group — streams of
// distinct local groups, and the residual sync stream, touch pairwise
// disjoint state and can apply concurrently.
//
// Three kinds of state stay order-sensitive across groups and are
// deferred instead: memory-controller writebacks (queue busy-chaining),
// directory-cache visits (set LRU), and directory entry releases (the
// flat table's backward-shift delete moves slots, which would tear
// concurrent probes). Each stream logs these with the op's global merge
// rank; a serial deferred merge replays them in rank order — exactly
// the serial sequence. Releases need no rank at all: a deferred release
// re-checks OnChip, so an entry re-populated by a later op survives and
// an entry left empty is removed, matching the serial end state (a
// fully-dropped entry is field-identical to a fresh one, so mid-stream
// "zombies" read exactly like the fresh entries serial Get would have
// created).
//
// During the parallel pass the table is structurally frozen — the merge
// pre-pass Get()s every fetch/upgrade target up front (Get may rehash;
// the pass itself uses read-only ProbeSlot walks) and releases are
// deferred — so slot indices stay valid for the whole pass and
// concurrent probe walks only read slot keys no one writes.
//
// The result is bit-identical to the serial replay at every replay
// worker count and on every host: partitioning is static, per-stream
// application preserves per-address program order, and the deferred
// merges are rank-ordered. Only the Directory's lookup counter and slot
// layout can differ — neither is result-visible.
package core

import (
	"math/bits"
	"time"

	"consim/internal/cache"
	"consim/internal/coherence"
	"consim/internal/memctrl"
	"consim/internal/sim"
	"consim/internal/vm"
)

// fxDirCache is one deferred directory-cache visit: replayed in global
// rank order so set LRU and hit/miss counters match the serial replay.
type fxDirCache struct {
	rank uint32
	home int32
	addr sim.Addr
}

// replayFx accumulates one stream's order-sensitive cross-group
// effects. All slices are reused across windows (0-alloc steady state).
type replayFx struct {
	dc         []fxDirCache
	wb         []memctrl.DeferredWriteback
	rel        []sim.Addr
	backInvals uint64
}

func (f *replayFx) reset() {
	f.dc = f.dc[:0]
	f.wb = f.wb[:0]
	f.rel = f.rel[:0]
	f.backInvals = 0
}

// applyOpsSharded is the sharded analogue of applyOps: serial k-way
// merge + stream classification + directory pre-pass, then the parallel
// per-group pass, then the serial cross-group merge.
func (e *pdesEngine) applyOpsSharded() {
	e.mergeAndClassify()
	t0 := time.Now()
	e.runParallelReplay()
	e.stats.ReplayParallelSeconds += time.Since(t0).Seconds()
	t1 := time.Now()
	e.applyDeferredPhase()
	e.stats.ReplayMergeSeconds += time.Since(t1).Seconds()
}

// mergeAndClassify k-way-merges the per-domain op logs into e.merged in
// the serial replay's total order (ascending time, ties by domain
// index), routes each op's rank to its group's stream (or the sync
// stream), and Get()s every fetch/upgrade target so the parallel pass
// runs over a structurally frozen table. The unconditional upgrade Get
// creates no entry the serial replay wouldn't: an upgrade's line
// reached its L1 through a fetch — either earlier in this very log
// (whose Get here runs first) or in a previous window (whose replay
// left a live entry that cannot have been released while the private
// copy survived).
func (e *pdesEngine) mergeAndClassify() {
	s := e.s
	idx := e.opIdx
	for i := range idx {
		idx[i] = 0
	}
	e.merged = e.merged[:0]
	for i := range e.streams {
		e.streams[i] = e.streams[i][:0]
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
		op := e.domains[best].ops[idx[best]]
		idx[best]++
		g := s.groupOf(int(op.core))
		e.applyByGroup[g]++
		st := e.streamOf[g]
		if st < 0 {
			st = int32(e.nlocal)
		}
		e.streams[st] = append(e.streams[st], int32(len(e.merged)))
		e.merged = append(e.merged, op)
		if op.kind != opEvictL1 {
			s.dir.Get(op.addr) // presence only; the pointer may move until the pre-pass ends
		}
	}
	for _, d := range e.domains {
		d.ops = d.ops[:0]
	}
}

// runParallelReplay posts the replay task to the window workers and
// applies the spine's own share. Reuses the window handshake — no extra
// goroutines, and at GOMAXPROCS=1 the spine simply applies every
// stream itself (same algorithm, same bits).
func (e *pdesEngine) runParallelReplay() {
	e.post(taskReplay)
	e.runReplayStreams(0)
	e.awaitWorkers()
}

// runReplayStreams applies executor r's share: local streams i with
// i%R == r (R = min(replayWorkers, execs)), plus the serial sync stream
// on the spine. Executors at or past R complete immediately.
func (e *pdesEngine) runReplayStreams(r int) {
	R := e.replayWorkers
	if R > e.execs {
		R = e.execs
	}
	if r >= R {
		return
	}
	for i := r; i < e.nlocal; i += R {
		e.applyStream(i)
	}
	if r == 0 {
		e.applyStream(e.nlocal)
	}
}

// applyStream applies one stream's ops in rank (= serial) order.
func (e *pdesEngine) applyStream(i int) {
	x := shardCtx{s: e.s, fx: &e.fx[i]}
	for _, rank := range e.streams[i] {
		op := &e.merged[rank]
		x.rank = uint32(rank)
		switch op.kind {
		case opFetch:
			x.applyFetch(op)
		case opUpgrade:
			x.applyUpgrade(op)
		default:
			x.applyEvictL1(op)
		}
	}
}

// applyDeferredPhase serially merges the streams' order-sensitive
// effects in global rank order, then settles the run counters the
// parallel pass could not touch.
func (e *pdesEngine) applyDeferredPhase() {
	s := e.s
	e.mergeDirCacheVisits()
	for i := range e.fx {
		e.wbLogs[i] = e.fx[i].wb
	}
	s.mem.ApplyMerged(e.wbLogs)
	for i := range e.fx {
		for _, addr := range e.fx[i].rel {
			// Release re-checks OnChip, so entries later ops re-populated
			// survive; order across streams is immaterial (stream address
			// sets are disjoint).
			s.dir.Release(addr)
		}
		s.backInvals += e.fx[i].backInvals
		e.fx[i].reset()
	}
	if s.hooks != nil {
		for i := range e.merged {
			if op := &e.merged[i]; op.kind == opFetch {
				s.hooks.ObserveMissLat(uint64(op.lat))
			}
		}
	}
	e.stats.Ops += uint64(len(e.merged))
}

// mergeDirCacheVisits replays the deferred directory-cache accesses in
// rank order. Ranks are unique across streams (an op lives in exactly
// one stream); equal ranks — several visits from one op — sit in one
// stream where cursor order preserves them.
func (e *pdesEngine) mergeDirCacheVisits() {
	s := e.s
	idx := e.mIdx
	for i := range idx {
		idx[i] = 0
	}
	for {
		best := -1
		var br uint32
		for i := range e.fx {
			dc := e.fx[i].dc
			if idx[i] >= len(dc) {
				continue
			}
			if r := dc[idx[i]].rank; best < 0 || r < br {
				best, br = i, r
			}
		}
		if best < 0 {
			return
		}
		v := &e.fx[best].dc[idx[best]]
		idx[best]++
		s.dirCache.Access(int(v.home), v.addr)
	}
}

// shardCtx is one stream's application context: the live system, the
// stream's deferred-effect log, and the rank of the op being applied.
// Its apply methods mirror applyFetch/applyUpgrade/applyEvictL1 and the
// shared eviction/invalidation walks exactly, with three substitutions:
// read-only ProbeSlot walks instead of Get (the pre-pass guaranteed
// presence and froze the table), deferral of the order-sensitive
// cross-group effects into fx, and op.t passed where the serial path
// read s.now (the serial replay pins s.now = op.t before each
// dispatch).
type shardCtx struct {
	s    *System
	fx   *replayFx
	rank uint32
}

func (x *shardCtx) dirVisit(addr sim.Addr) {
	x.fx.dc = append(x.fx.dc, fxDirCache{rank: x.rank, home: int32(x.s.dir.Home(addr)), addr: addr})
}

func (x *shardCtx) writeback(at sim.Cycle, addr sim.Addr) {
	x.fx.wb = append(x.fx.wb, memctrl.DeferredWriteback{Rank: x.rank, At: at, Addr: addr})
}

// applyFetch mirrors (*System).applyFetch. See pdes.go for the protocol
// commentary; only the sharding substitutions are annotated here.
func (x *shardCtx) applyFetch(op *pdesOp) {
	s := x.s
	c := int(op.core)
	vmID := int(op.vm)
	g := s.groupOf(c)
	addr := op.addr
	vtag := uint8(vmID)
	st := &s.vms[vmID].Stats
	bank := s.banks[g]

	bw, bHit := bank.Lookup(addr)
	si, ok := s.dir.ProbeSlot(addr)
	if !ok {
		// Unreachable: the merge pre-pass Get()s every fetch target and
		// nothing reshapes the table until the deferred merge. Bail
		// rather than corrupt slot 0; the bit-identity oracle would
		// surface the divergence.
		return
	}
	e := s.dir.EntryAt(si)
	if bHit {
		e.AddL2(g)
		if o := int(e.L1Owner); o >= 0 && o != c {
			s.downgradeOwner(o, addr, e)
			st.C2CDirty++
		}
	} else {
		st.LLCMisses++
		st.RegionMisses[op.region]++
		x.dirVisit(addr)
		switch o := int(e.L1Owner); {
		case o >= 0 && o != c:
			s.downgradeOwner(o, addr, e)
			st.C2CDirty++
		case e.L2Owner >= 0 && int(e.L2Owner) != g:
			b := int(e.L2Owner)
			if sw, okb := s.banks[b].Probe(addr); okb {
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
			// The serial path re-Gets addr here because the victim's
			// ReleaseSlot can shift the table; with releases deferred the
			// table cannot move, so e stays valid.
			x.evictBankLine(op.t, g, victim)
		}
		e.AddL2(g)
	}

	if op.write && (e.L2Count() > 1 || e.L1Sharers&^(1<<uint(c)) != 0) {
		e = x.invalidateOthers(op.t, c, addr, st)
	}
	s.demoteExclusives(c, addr, e)
	e.AddL1(c)
	if op.write {
		e.L1Owner = int8(c)
		e.L2Owner = int8(g)
		bank.SetState(bw, cache.Modified)
	} else if m := e.L1Sharers &^ (1 << uint(c)); m != 0 || e.Dirty() || e.L2Count() > 1 {
		if w, okw := s.l1[c].Probe(addr); okw && s.l1[c].State(w) == cache.Exclusive {
			s.l1[c].SetState(w, cache.Shared)
		}
		if w, okw := s.l0[c].Probe(addr); okw && s.l0[c].State(w) == cache.Exclusive {
			s.l0[c].SetState(w, cache.Shared)
		}
	}
}

// applyUpgrade mirrors (*System).applyUpgrade.
func (x *shardCtx) applyUpgrade(op *pdesOp) {
	s := x.s
	c := int(op.core)
	addr := op.addr
	w1, ok := s.l1[c].Probe(addr)
	if !ok {
		return
	}
	st := &s.vms[int(op.vm)].Stats
	si, oks := s.dir.ProbeSlot(addr)
	if !oks {
		return // unreachable; see applyFetch
	}
	e := s.dir.EntryAt(si)
	if e.L2Count() > 1 || e.L1Sharers&^(1<<uint(c)) != 0 {
		e = x.invalidateOthers(op.t, c, addr, st)
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

// applyEvictL1 mirrors (*System).applyEvictL1.
func (x *shardCtx) applyEvictL1(op *pdesOp) {
	st := cache.Shared
	if op.write {
		st = cache.Modified
	}
	x.evictPrivateVictim(int(op.core), cache.Line{Tag: op.addr, State: st})
}

// invalidateOthers mirrors invalidateOthersTM under applyTiming (all
// routing free, memPenalty zero), so only the functional side remains.
// For a local stream the other-bank loop is provably empty — a confined
// VM's line has bank copies only in its own group.
func (x *shardCtx) invalidateOthers(at sim.Cycle, c int, addr sim.Addr, st *vm.Stats) *coherence.Entry {
	s := x.s
	x.dirVisit(addr)
	g := s.groupOf(c)
	si, ok := s.dir.ProbeSlot(addr)
	if !ok {
		return nil // unreachable: callers hold addr's entry
	}
	e := s.dir.EntryAt(si)
	for m := e.L1Sharers &^ (1 << uint(c)); m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		s.dropPrivate(o, addr, e)
		st.Invalidations++
	}
	for m := e.L2Sharers &^ (1 << uint(g)); m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if bl, okb := s.banks[b].Invalidate(addr); okb && bl.State.Dirty() {
			x.writeback(at, addr)
		}
		e.DropL2(b)
		st.Invalidations++
	}
	e.L1Owner = -1
	e.L2Owner = -1
	return e
}

// evictPrivateVictim mirrors (*System).evictPrivateVictim with the
// release deferred.
func (x *shardCtx) evictPrivateVictim(c int, victim cache.Line) {
	s := x.s
	g := s.groupOf(c)
	si, ok := s.dir.ProbeSlot(victim.Tag)
	if !ok {
		return
	}
	e := s.dir.EntryAt(si)
	if victim.State == cache.Modified {
		if bw, okb := s.banks[g].Probe(victim.Tag); okb {
			s.banks[g].SetState(bw, cache.Modified)
			e.L2Owner = int8(g)
		}
		if e.L1Owner == int8(c) {
			e.L1Owner = -1
		}
	}
	e.DropL1(c)
	if !e.OnChip() {
		x.fx.rel = append(x.fx.rel, victim.Tag)
	}
}

// evictBankLine mirrors evictBankLineTM under applyTiming, with at
// standing in for the s.now the serial path reads (the serial replay
// sets s.now = op.t before each dispatch) and the release deferred.
func (x *shardCtx) evictBankLine(at sim.Cycle, g int, victim cache.Line) {
	s := x.s
	addr := victim.Tag
	dirty := victim.State.Dirty()
	si, ok := s.dir.ProbeSlot(addr)
	if ok {
		e := s.dir.EntryAt(si)
		for o := g * s.cfg.GroupSize; o < (g+1)*s.cfg.GroupSize; o++ {
			if !e.HasL1(o) {
				continue
			}
			if e.L1Owner == int8(o) {
				dirty = true
			}
			s.dropPrivate(o, addr, e)
			x.fx.backInvals++
		}
		e.DropL2(g)
		if !e.OnChip() {
			x.fx.rel = append(x.fx.rel, addr)
		}
	}
	if dirty {
		x.writeback(at, addr)
	}
}
