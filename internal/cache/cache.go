// Package cache implements the set-associative cache arrays used at every
// level of the simulated hierarchy (L0, L1 and the last-level cache
// banks). The arrays are timing-free: they record *content* (which lines
// are resident, their coherence state, and which virtual machine brought
// them in); all latency accounting lives in the system model that drives
// them.
//
// Storage is one []uint64 per cache, a set's ways contiguous and each way
// one packed slot: tag<<32 | vm<<8 | state, an all-ones tag marking an
// empty way. Host-memory latency, not compares, is what a set walk costs,
// so everything a hit, a fill or an eviction needs sits in the words the
// tag scan already pulled in (a 16-way set is two host cache lines).
//
// Recency invariant: every set is kept in recency order — way 0 is the
// MRU line, each deeper way is older, and empty ways are compacted to the
// tail. A hit at depth i slides ways 0..i-1 down one slot and lands the
// line at way 0; a fill takes the first empty way, else the last way (the
// LRU), and lands at way 0 the same way; Invalidate closes the gap so the
// hole moves to the tail. That order *is* the LRU state: there is no
// clock and no per-way age.
//
// Callers address a resident line through a Way handle, the line's slot
// index. Any Lookup hit, Insert, InsertIfAbsent fill or Invalidate on the
// same cache may move the lines of the set it touches, so a handle is
// good only across Probe, State, SetState, WayTag and WayVM. One
// exception the access walk relies on: the handle Lookup, Insert and an
// inserting InsertIfAbsent return is way 0, and way 0 is moved only by
// the next hit or fill in its set or by invalidating that very line — an
// Invalidate of a *different* line leaves it in place. A Probe handle to
// a deeper way has no such guarantee.
package cache

import (
	"fmt"

	"consim/internal/sim"
)

// State is the coherence state of a resident line. The protocol package
// drives transitions; the cache only stores the value.
type State uint8

const (
	// Invalid lines are not resident (only appears transiently).
	Invalid State = iota
	// Shared lines are clean and may be resident in other caches.
	Shared
	// Exclusive lines are clean and resident only here.
	Exclusive
	// Modified lines are dirty and resident only here.
	Modified
	// Owned lines are dirty but may have Shared copies elsewhere; the
	// owner supplies data on remote misses (SGI-Origin-style dirty
	// sharing).
	Owned
)

// String returns the canonical one-letter protocol name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Owned:
		return "O"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Dirty reports whether a line in state s holds data newer than memory.
func (s State) Dirty() bool { return s == Modified || s == Owned }

// Line is one resident cache line, materialized by value for eviction
// victims and ForEach callbacks.
type Line struct {
	Tag   sim.Addr // full line address (not a partial tag; simplicity over space)
	State State
	VM    uint8 // virtual machine that inserted the line (occupancy accounting)
}

// MaxVMs is how many virtual machines a line's VM field (8 bits, here
// and in the packed slot) tells apart; core.Config.Validate rejects
// machines with more, whose occupancy and quotas would alias.
const MaxVMs = 1 << 8

// Way is a handle to a resident line: the line's global slot index. See
// the package comment for how long it stays valid.
type Way int32

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Assoc     int
	Latency   sim.Cycle
}

// Validate reports whether the geometry is realizable.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive size or associativity (%d bytes, %d-way)", c.SizeBytes, c.Assoc)
	}
	lines := c.SizeBytes / sim.LineBytes
	if lines*sim.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %dB not a multiple of the %dB line", c.SizeBytes, sim.LineBytes)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// invalidTag marks an empty way in the packed tag field. Tags are line
// numbers (addresses shifted right by the line bits), and blockOf rejects
// addresses whose line number reaches the sentinel, so it can never
// collide with a real tag.
const invalidTag = ^uint32(0)

// MaxLines is how many lines of physical address space a cache can tag:
// line numbers 0 through MaxLines-1, the next being the empty-way
// sentinel. vm.Layout keeps every VM region below it, so a configuration
// can never reach blockOf's panic.
const MaxLines = uint64(invalidTag)

// Slot layout: the 32-bit line number (a quarter-terabyte of modeled
// physical space) in the high word, the inserting VM and the coherence
// state in the low word's two low bytes.
const (
	tagShift  = 32
	vmShift   = 8
	stateMask = 0xff
	emptySlot = uint64(invalidTag) << tagShift
)

func pack(tag uint32, st State, vm uint8) uint64 {
	return uint64(tag)<<tagShift | uint64(vm)<<vmShift | uint64(st)
}

func slotTag(v uint64) uint32 { return uint32(v >> tagShift) }

func slotLine(v uint64) Line {
	return Line{Tag: sim.Addr(v >> tagShift << sim.LineShift), State: State(v), VM: uint8(v >> vmShift)}
}

// Cache is a set-associative, LRU-replacement cache array.
type Cache struct {
	cfg     Config
	assoc   int
	setMask uint64
	quota   []int // per-VM way quotas (nil = unpartitioned)

	// slots holds every way, indexed set*assoc+way, each set in recency
	// order with its empty ways last (see the package comment).
	slots []uint64

	// Stats are plain counters; the driving model reads them directly.
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64

	// Pads the struct to two host cache lines: NewN lays a level's caches
	// out back to back, and the parallel engines count hits on different
	// cores' caches from different threads.
	_ [8]byte
}

// blockOf compresses addr to its packed 32-bit line number. The guard
// trips only for machines modeling ≥256GB of physical address space —
// far beyond the paper's configurations — rather than silently aliasing.
func blockOf(addr sim.Addr) uint32 {
	b := uint64(addr) >> sim.LineShift
	if b >= uint64(invalidTag) {
		panic("cache: address exceeds packed 32-bit tag capacity")
	}
	return uint32(b)
}

// New builds a cache from cfg. It panics on an invalid configuration:
// configurations are produced by this module's own experiment code, so a
// bad one is a programming error, not an input error.
func New(cfg Config) *Cache {
	c := new(Cache)
	c.init(cfg, make([]uint64, cfg.lines()))
	return c
}

// NewN builds n caches of one geometry — a whole cache level — from two
// allocations: one []Cache and one []uint64 holding every cache's ways
// back to back. Each cache's slots are cut from the slab with a full-slice
// expression, so no cache can reach a neighbour's ways. A simulated
// machine builds its 16 L0s, 16 L1s, LLC banks and directory caches this
// way, for every run of a figure sweep; built one by one they were a
// quarter of a run's allocations.
func NewN(n int, cfg Config) []*Cache {
	nLines := cfg.lines()
	level := make([]Cache, n)
	slab := make([]uint64, n*nLines)
	out := make([]*Cache, n)
	for i := range level {
		level[i].init(cfg, slab[i*nLines:(i+1)*nLines:(i+1)*nLines])
		out[i] = &level[i]
	}
	return out
}

// lines returns the line capacity of a valid geometry and panics on an
// invalid one.
func (c Config) lines() int {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c.SizeBytes / sim.LineBytes
}

// init points an empty cache of geometry cfg at its ways.
func (c *Cache) init(cfg Config, slots []uint64) {
	fillEmpty(slots)
	c.cfg = cfg
	c.assoc = cfg.Assoc
	c.setMask = uint64(len(slots)/cfg.Assoc - 1)
	c.slots = slots
}

// fillEmpty marks every slot empty: it seeds one slot and doubles the
// filled prefix with copy. A scalar store loop's speed hung on where the
// linker placed it (1.6x slower when its four instructions straddled a
// 64-byte line), so unrelated code changes moved every machine's set-up
// time; copy runs the runtime's memmove, whose placement never changes.
func fillEmpty(slots []uint64) {
	if len(slots) == 0 {
		return
	}
	slots[0] = emptySlot
	for n := 1; n < len(slots); n *= 2 {
		copy(slots[n:], slots[:n])
	}
}

// Config returns the geometry the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the access latency of this array.
func (c *Cache) Latency() sim.Cycle { return c.cfg.Latency }

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return len(c.slots) }

// State returns the coherence state of the line at w.
func (c *Cache) State(w Way) State { return State(c.slots[w]) }

// SetState updates the coherence state of the line at w.
func (c *Cache) SetState(w Way, st State) {
	c.slots[w] = c.slots[w]&^stateMask | uint64(st)
}

// WayTag returns the line address held at w.
func (c *Cache) WayTag(w Way) sim.Addr { return slotLine(c.slots[w]).Tag }

// WayVM returns the inserting VM of the line at w.
func (c *Cache) WayVM(w Way) uint8 { return uint8(c.slots[w] >> vmShift) }

// set returns the ways of the set that block maps to, and the set's
// first slot index.
func (c *Cache) set(block uint32) ([]uint64, int) {
	base := int(uint64(block)&c.setMask) * c.assoc
	return c.slots[base : base+c.assoc : base+c.assoc], base
}

// Lookup probes for the line containing addr. On a hit it moves the line
// to way 0 — the set's MRU position — and returns its handle. It does
// not allocate on miss.
func (c *Cache) Lookup(addr sim.Addr) (Way, bool) {
	t := blockOf(addr)
	c.Accesses++
	s, base := c.set(t)
	for i, v := range s {
		if slotTag(v) != t {
			continue
		}
		copy(s[1:i+1], s[:i])
		s[0] = v
		c.Hits++
		return Way(base), true
	}
	c.Misses++
	return -1, false
}

// Probe checks residency without touching recency order or stats. Used
// by the coherence layer for remote snoops and by snapshot accounting.
func (c *Cache) Probe(addr sim.Addr) (Way, bool) {
	t := blockOf(addr)
	s, base := c.set(t)
	for i, v := range s {
		if slotTag(v) == t {
			return Way(base + i), true
		}
	}
	return -1, false
}

// Insert allocates the line containing addr in state st on behalf of vm,
// evicting the LRU way of the set if needed. It returns the displaced
// line (evicted reports whether there was one) and the handle of the
// newly inserted line. Inserting a line that is already resident is a
// programming error in the protocol driver and panics.
func (c *Cache) Insert(addr sim.Addr, st State, vm uint8) (victim Line, evicted bool, w Way) {
	victim, evicted, w, inserted := c.InsertIfAbsent(addr, st, vm)
	if !inserted {
		panic(fmt.Sprintf("cache: double insert of line %#x", blockOf(addr)))
	}
	return victim, evicted, w
}

// InsertIfAbsent installs the line containing addr unless it is already
// resident, in one set scan (against Probe-then-Insert's two). On a
// pre-existing line it is a no-op, like the Probe it replaces (no stats,
// no recency refresh).
func (c *Cache) InsertIfAbsent(addr sim.Addr, st State, vm uint8) (victim Line, evicted bool, w Way, inserted bool) {
	la := blockOf(addr)
	s, base := c.set(la)
	vi := len(s) - 1
	for i, v := range s {
		if slotTag(v) == la {
			return Line{}, false, Way(base + i), false
		}
		if slotTag(v) == invalidTag {
			// Empty ways are compacted to the tail: nothing resident
			// lies beyond the first one.
			vi = i
			break
		}
	}
	if slotTag(s[vi]) != invalidTag {
		if c.quota != nil {
			vi = c.partitionVictim(s, vm)
		}
		victim, evicted = slotLine(s[vi]), true
		c.Evictions++
	}
	copy(s[1:vi+1], s[:vi])
	s[0] = pack(la, st, vm)
	return victim, evicted, Way(base), true
}

// Invalidate removes the line containing addr if resident and returns the
// removed copy, sliding the deeper ways up one slot so the hole lands at
// the set's tail. Used for coherence invalidations and inclusive
// back-invalidation.
func (c *Cache) Invalidate(addr sim.Addr) (Line, bool) {
	t := blockOf(addr)
	s, _ := c.set(t)
	for i, v := range s {
		if slotTag(v) == t {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = emptySlot
			return slotLine(v), true
		}
	}
	return Line{}, false
}

// Counters returns the access counters in one call — the shape the
// observability layer's per-level gauges publish on a cadence.
func (c *Cache) Counters() (accesses, hits, misses, evictions uint64) {
	return c.Accesses, c.Hits, c.Misses, c.Evictions
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// ResetStats zeroes the counters without disturbing contents; used when a
// warm-up phase ends and measurement begins.
func (c *Cache) ResetStats() {
	c.Accesses, c.Hits, c.Misses, c.Evictions = 0, 0, 0, 0
}

// OccupancyByVM counts resident lines per VM ID (index = VM). The slice
// is sized to maxVM+1 entries.
func (c *Cache) OccupancyByVM(maxVM int) []int {
	occ := make([]int, maxVM+1)
	c.ForEach(func(l *Line) {
		if int(l.VM) <= maxVM {
			occ[l.VM]++
		}
	})
	return occ
}

// Resident returns the number of valid lines.
func (c *Cache) Resident() int {
	n := 0
	c.ForEach(func(*Line) { n++ })
	return n
}

// ForEach visits every resident line as a value snapshot. The callback
// must not insert or invalidate lines; mutations of the snapshot are not
// written back.
func (c *Cache) ForEach(fn func(*Line)) {
	for _, v := range c.slots {
		if slotTag(v) == invalidTag {
			continue
		}
		l := slotLine(v)
		fn(&l)
	}
}
