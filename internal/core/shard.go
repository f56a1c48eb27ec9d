// Sharded intra-run execution.
//
// The simulator's event loop executes every memory access atomically at
// event-pop time: a fetch walks the directory, invalidates remote
// caches and updates mesh and controller contention state in one call.
// Cross-core effects are therefore visible instantaneously — the
// conservative lookahead between any two cores is zero — so a
// domain-decomposed parallel engine (per-shard calendars advancing in
// barrier-synchronous cycle windows) cannot overlap any two events
// without changing results. What CAN leave the critical path is the
// functional plane: sampling the workloads' reference streams and
// pre-drawing think times, which together are ~15% of the per-event
// cost and touch no timing state.
//
// -shards=N therefore keeps a single timing spine — the exact
// sequential event loop, popping events in the exact sequential order —
// and adds N-1 workers that keep each workload thread's next reference
// batch and each core's next think-time batch ready before the spine
// needs them. Bit-identity holds by construction: the spine consumes
// pre-computed values that are provably equal to what the inline
// computation would produce (see workload.PrefillJob for the deferred
// shared-cursor protocol), and every timing-visible mutation still
// happens on the spine in event order.
package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"consim/internal/obs"
	"consim/internal/sim"
	"consim/internal/workload"
)

// thinkBatchLen is the number of think-time draws pre-computed per core
// batch. It matches the workload generator's ring size so both pipelines
// refill on comparable cadences.
const thinkBatchLen = 256

// Worker task encoding: low bit selects the kind, the rest is an index
// (prefill slot or core).
const (
	taskPrefill = 0
	taskThink   = 1
)

func encodeTask(kind, idx int) uint32 { return uint32(idx)<<1 | uint32(kind) }

// prefillSlot tracks one workload thread's in-flight reference batch.
type prefillSlot struct {
	job      *workload.PrefillJob
	g        *workload.Generator
	idx      int // own index, for task encoding
	worker   int
	inflight bool // a Begin has been posted and not yet adopted
}

// thinkBatch double-buffers one core's pre-drawn think times. The spine
// consumes cur while a worker fills stage from the core RNG state where
// the previous batch ended; adoption swaps the buffers and pipelines the
// next fill. Pre-drawing is bit-identical to inline draws because the
// draw range is constant for the core (single resident runnable, no
// rebalancing — gated at engine construction) and the RNG stream is
// consumed in the same order.
type thinkBatch struct {
	cur, stage []uint64
	pos        int
	n          uint64 // constant Uint64n range: 2*mean think + 1
	startState uint64 // RNG position the next fill starts from
	endState   uint64 // position after the staged batch (worker-written)
	ready      atomic.Bool
	worker     int
	enabled    bool
}

// ShardStats reports what the sharded engine did during a run; all
// fields are zero for the sequential engine.
type ShardStats struct {
	// Shards is the configured lane count, Workers the goroutines spawned.
	Shards  int `json:"shards,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Prefills counts reference batches adopted from workers, SyncFills
	// batches the spine computed inline (warm-up, before the shared-sweep
	// gate opens), ThinkBatches think batches adopted.
	Prefills     uint64 `json:"prefills,omitempty"`
	SyncFills    uint64 `json:"sync_fills,omitempty"`
	ThinkBatches uint64 `json:"think_batches,omitempty"`
	// Stalls counts adoptions that found the batch not ready, and
	// StallSeconds the wall time the spine spent waiting on them — the
	// sharded engine's analogue of barrier-stall time.
	Stalls       uint64  `json:"stalls,omitempty"`
	StallSeconds float64 `json:"stall_seconds,omitempty"`
}

// shardEngine owns the worker lanes of one System.
type shardEngine struct {
	plan  sim.ShardPlan
	rings []*sim.TaskRing // one SPSC ring per worker
	wg    sync.WaitGroup

	slots  []prefillSlot
	slotOf [][]int32 // [vm][thread] -> slot index; -1 = no generator

	thinks []thinkBatch // indexed by core; enabled cores only

	stats ShardStats

	// laneNanos accumulates each worker lane's task-execution wall time
	// (atomic: the spine reads it for the run's PhaseProfile while
	// workers may still be draining in-flight tasks).
	laneNanos []atomic.Int64

	// tr / lanes give each worker its own trace lane, so Perfetto shows
	// the functional plane next to the spine and stalls read as gaps.
	tr    *obs.Tracer
	lanes []int
}

// attachTracer acquires one trace lane per worker. Idempotent; a nil
// tracer leaves tracing off.
func (e *shardEngine) attachTracer(tr *obs.Tracer) {
	if tr == nil || e.tr != nil {
		return
	}
	e.tr = tr
	e.lanes = make([]int, len(e.rings))
	for w := range e.lanes {
		e.lanes[w] = tr.AcquireLane()
	}
}

// newShardEngine builds the engine for s (cfg.Shards > 1 validated).
// Worker goroutines start in start(), not here.
func newShardEngine(s *System) *shardEngine {
	cfg := &s.cfg
	e := &shardEngine{
		plan: sim.NewShardPlan(cfg.Shards, cfg.Cores),
	}
	workers := e.plan.Workers()
	e.stats.Shards = cfg.Shards
	e.stats.Workers = workers

	// Prefill slots: one per (vm, thread) whose source is the statistical
	// generator. Trace-replay sources fall back to the live path.
	e.slotOf = make([][]int32, len(s.vms))
	for v, m := range s.vms {
		threads := cfg.ThreadsOf(v)
		e.slotOf[v] = make([]int32, threads)
		g, ok := m.Gen.(*workload.Generator)
		for t := 0; t < threads; t++ {
			if !ok {
				e.slotOf[v][t] = -1
				continue
			}
			idx := len(e.slots)
			e.slotOf[v][t] = int32(idx)
			e.slots = append(e.slots, prefillSlot{
				job:    workload.NewPrefillJob(g, t),
				g:      g,
				idx:    idx,
				worker: idx % workers,
			})
		}
	}

	// Think batches: legal only while a core's resident runnable — and
	// hence the draw range — cannot change: exactly one thread bound to
	// the core and no dynamic rebalancing.
	e.thinks = make([]thinkBatch, cfg.Cores)
	for c := range e.thinks {
		tb := &e.thinks[c]
		tb.worker = e.plan.WorkerOf(c)
		if cfg.RebalanceCycles > 0 || len(s.cores[c].queue) != 1 {
			continue
		}
		tb.enabled = true
		tb.cur = make([]uint64, thinkBatchLen)
		tb.stage = make([]uint64, thinkBatchLen)
		tb.pos = thinkBatchLen // force adoption on first use
		tb.n = s.thinkOf[s.cores[c].queue[0].vmID]
	}

	// Ring capacity: every slot and every core can have at most one task
	// in flight, so per-worker occupancy is bounded by the total.
	e.rings = make([]*sim.TaskRing, workers)
	for w := range e.rings {
		e.rings[w] = sim.NewTaskRing(len(e.slots) + cfg.Cores + 1)
	}
	e.laneNanos = make([]atomic.Int64, workers)
	return e
}

// start seeds the think pipelines and launches the worker goroutines.
func (e *shardEngine) start(s *System) {
	for c := range e.thinks {
		tb := &e.thinks[c]
		if !tb.enabled {
			continue
		}
		tb.startState = s.cores[c].rng.State()
		tb.ready.Store(false)
		e.rings[tb.worker].Push(encodeTask(taskThink, c))
		e.stats.ThinkBatches++
	}
	for w := range e.rings {
		e.wg.Add(1)
		go e.worker(w)
	}
}

// stop drains and joins the workers and releases their trace lanes.
func (e *shardEngine) stop() {
	for _, r := range e.rings {
		r.Close()
	}
	e.wg.Wait()
	if e.tr != nil {
		for _, lane := range e.lanes {
			e.tr.ReleaseLane(lane)
		}
		e.tr = nil
	}
}

// worker executes posted tasks until its ring closes.
func (e *shardEngine) worker(w int) {
	defer e.wg.Done()
	tr, lane := e.tr, 0
	if tr != nil {
		lane = e.lanes[w]
	}
	ring := e.rings[w]
	for {
		task, ok := ring.Pop()
		if !ok {
			return
		}
		t0 := time.Now()
		if task&1 == taskPrefill {
			if tr != nil {
				tr.Begin(lane, "prefill")
			}
			e.slots[task>>1].job.Run()
		} else {
			if tr != nil {
				tr.Begin(lane, "think")
			}
			e.runThink(&e.thinks[task>>1])
		}
		if tr != nil {
			tr.End(lane)
		}
		e.laneNanos[w].Add(time.Since(t0).Nanoseconds())
	}
}

// runThink fills tb.stage with the next thinkBatchLen draws of the
// core's RNG stream. Worker-side; the Pop/Push and ready flag carry the
// happens-before edges with the spine.
func (e *shardEngine) runThink(tb *thinkBatch) {
	var r sim.RNG
	r.Restore(tb.startState)
	n := tb.n
	for i := range tb.stage {
		tb.stage[i] = r.Uint64n(n)
	}
	tb.endState = r.State()
	tb.ready.Store(true)
}

// shardSource is the engine's refSource: references come from prefilled
// rings, think times from pre-drawn batches, with inline fallbacks
// whenever a fast path is not legal. All methods run on the spine.
type shardSource struct{ e *shardEngine }

func (ss shardSource) next(s *System, run runnable) workload.Access {
	e := ss.e
	si := e.slotOf[run.vmID][run.thread]
	if si < 0 {
		return s.vms[run.vmID].Gen.Next(run.thread)
	}
	sl := &e.slots[si]
	if a, ok := sl.g.NextOr(run.thread); ok {
		return a
	}
	return e.refill(sl)
}

// peek declines: worker batches are adopted into the ring at refill, and
// no sharded workload is big enough for the lookahead to matter.
func (shardSource) peek(*System, runnable) (workload.Access, bool) {
	return workload.Access{}, false
}

// refill handles a drained reference ring: adopt the in-flight batch
// (pipelining the next one) or, before the prefill gate opens, fill
// inline and start the pipeline once the generator reaches steady state.
func (e *shardEngine) refill(sl *prefillSlot) workload.Access {
	if sl.inflight {
		if !sl.job.Ready() {
			e.stats.Stalls++
			start := time.Now()
			for !sl.job.Ready() {
				runtime.Gosched()
			}
			e.stats.StallSeconds += time.Since(start).Seconds()
		}
		a := sl.job.Adopt()
		sl.job.Begin()
		e.rings[sl.worker].Push(encodeTask(taskPrefill, sl.idx))
		e.stats.Prefills++
		return a
	}
	a := sl.g.FillSync(sl.job.Thread())
	e.stats.SyncFills++
	if sl.g.SteadyPrefill() {
		sl.job.Begin()
		e.rings[sl.worker].Push(encodeTask(taskPrefill, sl.idx))
		sl.inflight = true
	}
	return a
}

func (ss shardSource) think(s *System, c, vmID int) uint64 {
	e := ss.e
	tb := &e.thinks[c]
	if !tb.enabled {
		return s.cores[c].rng.Uint64n(s.thinkOf[vmID])
	}
	if tb.pos < thinkBatchLen {
		v := tb.cur[tb.pos]
		tb.pos++
		return v
	}
	e.await(&tb.ready)
	tb.cur, tb.stage = tb.stage, tb.cur
	tb.pos = 1
	tb.startState = tb.endState
	tb.ready.Store(false)
	e.rings[tb.worker].Push(encodeTask(taskThink, c))
	e.stats.ThinkBatches++
	return tb.cur[0]
}

// await spins the spine until flag is set, yielding the processor so the
// owing worker can run (on a single-CPU host the yield IS the schedule).
// Stall counts and wall time feed the run's ShardStats.
func (e *shardEngine) await(flag *atomic.Bool) {
	if flag.Load() {
		return
	}
	e.stats.Stalls++
	start := time.Now()
	for !flag.Load() {
		runtime.Gosched()
	}
	e.stats.StallSeconds += time.Since(start).Seconds()
}
