// Package coherence implements the SGI-Origin-style directory protocol
// state used by the simulated CMP. Directory entries are striped across
// the chip's nodes by physical address (the paper's §IV-A); each node has
// a directory cache so that directory lookups normally stay on chip.
//
// The directory records, per cache line, which private caches (L1s) and
// which last-level cache banks hold the line and who owns a dirty copy.
// The system model in internal/core drives all transitions; this package
// owns the bookkeeping and the sharer/owner invariants.
package coherence

import (
	"fmt"
	"math/bits"

	"consim/internal/cache"
	"consim/internal/prefetch"
	"consim/internal/sim"
)

// Entry is the directory's view of one cache line. The 64-bit sharer
// masks support machines up to 64 cores / 64 bank groups (the paper's
// chip uses 16; larger machines serve the §VII scaling studies).
//
// An entry in the directory's table also carries that table's tag for
// it, in bytes the owner fields would otherwise leave as padding. Mutate
// a table entry field by field, or Clear it; a whole-Entry store through
// a pointer from Get, Probe or EntryAt overwrites the tag and frees the
// slot under a live entry (CheckInvariants reports it).
type Entry struct {
	// L1Sharers is a bitmask over cores whose private hierarchy (L0/L1)
	// holds the line.
	L1Sharers uint64
	// L2Sharers is a bitmask over LLC banks holding the line.
	L2Sharers uint64
	// L1Owner is the core holding the line dirty in its private levels,
	// or -1.
	L1Owner int8
	// L2Owner is the LLC bank holding the line dirty, or -1.
	L2Owner int8

	tag uint32 // ^blockID in a Directory's table (dirFree: a free slot), else 0
}

// MaxNodes is the largest machine the sharer masks can describe.
const MaxNodes = 64

// NewEntry returns an entry with no sharers and no owner.
func NewEntry() Entry { return Entry{L1Owner: -1, L2Owner: -1} }

// Clear drops every sharer and owner, keeping the entry's table tag: the
// in-place form of storing NewEntry().
func (e *Entry) Clear() { *e = Entry{L1Owner: -1, L2Owner: -1, tag: e.tag} }

// OnChip reports whether any cache on the chip holds the line.
func (e *Entry) OnChip() bool { return e.L1Sharers != 0 || e.L2Sharers != 0 }

// Dirty reports whether some cache holds the line newer than memory.
func (e *Entry) Dirty() bool { return e.L1Owner >= 0 || e.L2Owner >= 0 }

// L1Count returns the number of private-cache sharers.
func (e *Entry) L1Count() int { return bits.OnesCount64(e.L1Sharers) }

// L2Count returns the number of LLC banks holding the line.
func (e *Entry) L2Count() int { return bits.OnesCount64(e.L2Sharers) }

// AddL1 records core c as a private-level sharer.
func (e *Entry) AddL1(c int) { e.L1Sharers |= 1 << uint(c) }

// DropL1 clears core c's private-level sharing (and ownership if held).
func (e *Entry) DropL1(c int) {
	e.L1Sharers &^= 1 << uint(c)
	if e.L1Owner == int8(c) {
		e.L1Owner = -1
	}
}

// HasL1 reports whether core c holds the line privately.
func (e *Entry) HasL1(c int) bool { return e.L1Sharers&(1<<uint(c)) != 0 }

// AddL2 records bank b as holding the line.
func (e *Entry) AddL2(b int) { e.L2Sharers |= 1 << uint(b) }

// DropL2 clears bank b (and its ownership if held).
func (e *Entry) DropL2(b int) {
	e.L2Sharers &^= 1 << uint(b)
	if e.L2Owner == int8(b) {
		e.L2Owner = -1
	}
}

// HasL2 reports whether bank b holds the line.
func (e *Entry) HasL2(b int) bool { return e.L2Sharers&(1<<uint(b)) != 0 }

// OtherL1 returns any private sharer other than core c, or -1.
func (e *Entry) OtherL1(c int) int {
	m := e.L1Sharers &^ (1 << uint(c))
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros64(m)
}

// OtherL2 returns any bank sharer other than bank b, or -1.
func (e *Entry) OtherL2(b int) int {
	m := e.L2Sharers &^ (1 << uint(b))
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros64(m)
}

// dirSlot is one bucket of the directory's open-addressing table: an
// Entry stored by value, its tag (the block ID's 32-bit complement) in
// the entry's own padding. The all-zero tag marks a free bucket, so a
// fresh table is a bare make with no fill pass; the slot packs to 24
// bytes (8 to 3 host lines, 2 of them straddling a line boundary), stays
// pointer-free (out of the garbage collector's scan set) and makes the
// per-line state a single read.
type dirSlot = Entry

// dirFree is a free slot's tag. Keys are line numbers below
// cache.MaxLines, the caches' own domain, so the all-ones line — whose
// complement this is — is never a key.
const dirFree = 0

// keyOfTag returns the block ID a live slot's tag stands for.
func keyOfTag(tag uint32) uint64 { return uint64(^tag) }

// Directory is the chip-wide line directory. Entries live in a flat
// open-addressed hash table keyed by block ID (linear probing, fibonacci
// hashing, power-of-two capacity, backward-shift deletion — no
// tombstones). The striping across home nodes affects only where lookups
// are routed (latency), not where state is stored, so a single table
// keeps the implementation simple and the behaviour identical.
//
// The table is sized from the lines the chip can hold (NewDirectoryFor):
// an inclusive LLC bounds the live entries, so the first insert
// allocates the bound's capacity and the table never grows again.
// Doubling remains the only fallback, for traffic that passes the bound
// and for directories built without one.
//
// This replaced a map[uint64]*Entry: the map allocated one heap Entry per
// tracked line (the dominant steady-state allocation of a whole
// simulation) and paid Go's generic map hashing on every lookup of the
// LLC transaction path. The flat table is allocation-free in steady
// state. The retired map implementation survives only in this package's
// tests (refdir_test.go), as the oracle for the differential parity
// tests.
type Directory struct {
	nodes    int
	homeMask int // nodes-1 when nodes is a power of two, else -1

	slots []dirSlot
	shift uint // 64 - log2(len(slots)); fibonacci-hash shift
	used  int  // live slots
	grow  int  // growth threshold (3/4 load)
	jump  int  // capacity of the first growth (dirCap of the bound); 0 doubles

	// none is a bounded directory's table until its first insert: one
	// free slot under a growth threshold of 0.
	none [1]dirSlot

	// Lookups counts directory accesses; used by tests and reports.
	Lookups uint64
}

// dirInitialSlots is an unbounded directory's first table, 1.5 MB (2^16
// slots of 24 B), allocated at construction; a bounded one allocates its
// bound's capacity instead. Must be a power of two.
const dirInitialSlots = 1 << 16

// dirCap returns the smallest power-of-two capacity whose 3/4 load holds
// lines+1 entries: the bound plus the one entry a fill creates before
// its victim's release.
func dirCap(lines int) int {
	n := 2
	for n*3/4 < lines+1 {
		n *= 2
	}
	return n
}

// NewDirectory returns a directory striped across n home nodes with no
// bound on its live entries: it starts at dirInitialSlots and doubles.
func NewDirectory(n int) *Directory { return NewDirectoryFor(n, 0) }

// NewDirectoryFor returns a directory striped across n home nodes that
// will hold at most lines live entries (0: unknown). A bounded directory
// owns no table until its first insert allocates dirCap(lines) slots;
// growths past the bound, and every growth without one, double.
func NewDirectoryFor(n, lines int) *Directory {
	if n <= 0 || n > MaxNodes {
		panic(fmt.Sprintf("coherence: invalid node count %d (1..%d)", n, MaxNodes))
	}
	hm := -1
	if n&(n-1) == 0 {
		hm = n - 1
	}
	d := &Directory{nodes: n, homeMask: hm}
	if lines > 0 {
		d.jump = dirCap(lines)
		d.slots, d.shift = d.none[:], 64
		return d
	}
	d.resize(dirInitialSlots)
	return d
}

// resize installs a free table of n slots and its hash parameters. A
// table holding whole 2 MB pages is advised onto huge pages before
// anything touches it: the buckets are hash-spread, so a 4 KB-paged
// table misses the host TLB on nearly every probe, and each prefetch
// hint into it pays a page walk before its line can even be requested.
func (d *Directory) resize(n int) {
	d.slots = make([]dirSlot, n)
	prefetch.HugePages(d.slots)
	d.shift = 64 - uint(bits.TrailingZeros(uint(n)))
	d.grow = n * 3 / 4
}

// dirSlotBytes is a dirSlot's size: an Entry's two masks, two owners
// and the 32-bit tag in the 4 bytes after them, 24 in all.
const dirSlotBytes = 24

// hostLineBytes is the host cache line the prefetch hints fetch.
const hostLineBytes = 64

// TableBytes returns the size of the first table NewDirectoryFor(n,
// lines) allocates: the bound's (an unbounded directory's for lines 0).
func TableBytes(lines int) int {
	if lines <= 0 {
		return dirInitialSlots * dirSlotBytes
	}
	return dirCap(lines) * dirSlotBytes
}

// Nodes returns the number of home nodes.
func (d *Directory) Nodes() int { return d.nodes }

// Home returns the node whose directory slice owns addr. Entries are
// striped by block address, matching the paper's configuration.
func (d *Directory) Home(addr sim.Addr) int {
	b := sim.BlockID(addr)
	if d.homeMask >= 0 {
		return int(b) & d.homeMask
	}
	return int(b % uint64(d.nodes))
}

// idx returns the home bucket of a block ID. Fibonacci (multiplicative)
// hashing: block IDs are dense and strided, so the golden-ratio multiply
// spreads them across the table before the power-of-two truncation.
func (d *Directory) idx(key uint64) uint64 {
	return (key * fibMul) >> d.shift
}

// fibMul is 2^64 divided by the golden ratio, idx's multiplier.
const fibMul = 0x9e3779b97f4a7c15

// bucket returns addr's home bucket and its slot tag. Like the caches'
// packed tags, the table's hold 32 bits: a line at or past
// cache.MaxLines is a caller's error. The body spells out sim.BlockID
// and idx, which keeps Probe and ProbeSlot, inlined into the
// simulator's eviction paths, within the compiler's inlining budget.
func (d *Directory) bucket(addr sim.Addr) (uint64, uint32) {
	key := uint64(addr) >> sim.LineShift
	if key >= cache.MaxLines {
		panic("coherence: address exceeds packed 32-bit tag capacity")
	}
	return (key * fibMul) >> d.shift, ^uint32(key)
}

// Get returns the entry for addr, creating an empty one if absent.
//
// Pointer validity: the returned *Entry points into the table and is
// invalidated by the next insertion (a Get of an untracked line may grow
// the table) or deletion (a Release may backward-shift neighbours). The
// protocol driver in internal/core re-fetches entries after any such
// operation instead of holding pointers across them.
func (d *Directory) Get(addr sim.Addr) *Entry {
	d.Lookups++
	i, tag := d.bucket(addr)
	mask := uint64(len(d.slots) - 1)
	for ; ; i = (i + 1) & mask {
		e := &d.slots[i]
		if e.tag == tag {
			return e
		}
		if e.tag == dirFree {
			if d.used >= d.grow {
				d.rehash()
				return d.insert(tag)
			}
			d.used++
			*e = Entry{L1Owner: -1, L2Owner: -1, tag: tag}
			return e
		}
	}
}

// insert places a tag known to be absent and returns its entry.
func (d *Directory) insert(tag uint32) *Entry {
	mask := uint64(len(d.slots) - 1)
	i := d.idx(keyOfTag(tag))
	for d.slots[i].tag != dirFree {
		i = (i + 1) & mask
	}
	d.used++
	e := &d.slots[i]
	*e = Entry{L1Owner: -1, L2Owner: -1, tag: tag}
	return e
}

// rehash grows the table — the first time to the bound's capacity, after
// that (or with no bound) by doubling — and reinserts every live slot.
// The copy is a single pointer-free pass; with a bound the first growth
// copies nothing and is also the last: Release keeps the table at
// on-chip lines.
func (d *Directory) rehash() {
	old := d.slots
	d.resize(max(2*len(old), d.jump))
	d.jump = 0
	mask := uint64(len(d.slots) - 1)
	for oi := range old {
		if old[oi].tag == dirFree {
			continue
		}
		i := d.idx(keyOfTag(old[oi].tag))
		for d.slots[i].tag != dirFree {
			i = (i + 1) & mask
		}
		d.slots[i] = old[oi]
	}
}

// Probe returns the entry for addr without creating one. The returned
// pointer has the same validity contract as Get's.
func (d *Directory) Probe(addr sim.Addr) (*Entry, bool) {
	i, tag := d.bucket(addr)
	mask := uint64(len(d.slots) - 1)
	for ; ; i = (i + 1) & mask {
		e := &d.slots[i]
		if e.tag == tag {
			return e, true
		}
		if e.tag == dirFree {
			return nil, false
		}
	}
}

// Release removes the entry for addr if no cache holds the line; keeping
// the table bounded by on-chip state keeps long runs from growing without
// bound. Deletion is by backward shift: subsequent entries of the probe
// cluster slide into the vacated bucket, so the table carries no
// tombstones and lookups never scan dead slots.
func (d *Directory) Release(addr sim.Addr) {
	if i, ok := d.ProbeSlot(addr); ok {
		d.ReleaseSlot(i)
	}
}

// PrefetchProbe starts the host load of addr's home bucket ahead of a
// coming Get or ProbeSlot, so the table's DRAM miss overlaps other work
// instead of stalling the walk behind an address only a tag compare
// reveals. It changes no state (Lookups included). It covers a lookup,
// whose probe sequence usually ends in the home bucket: both of its host
// lines when the bucket straddles two (the tag, the bucket's last word,
// then lies in the second). A release reads on past it
// (PrefetchRelease).
func (d *Directory) PrefetchProbe(addr sim.Addr) {
	home, tag, _ := d.hintSlots(d.idx(sim.BlockID(addr)))
	prefetch.Line(home)
	prefetch.Line(tag)
}

// PrefetchRelease is PrefetchProbe ahead of a coming ReleaseSlot of
// addr: beside the home bucket's host lines it starts the line after
// them. The backward shift reads on from the entry's bucket to the first
// free one, so it crosses into that line whenever the entry sits near
// its line's end or its cluster runs on; with only the home line
// prefetched, that read was the release's remaining stall. It changes no
// state.
func (d *Directory) PrefetchRelease(addr sim.Addr) {
	home, tag, next := d.hintSlots(d.idx(sim.BlockID(addr)))
	prefetch.Line(home)
	prefetch.Line(tag)
	prefetch.Line(next)
}

// hintSlots returns what the prefetch hints for bucket i start: the
// bucket's first word, its tag (its last word) and the first bucket that
// begins in the host line after the tag's, wrapping at the table's end.
// Line arithmetic assumes a line-aligned table, which every table past
// the allocator's small size classes is.
func (d *Directory) hintSlots(i uint64) (home *dirSlot, tag *uint32, next *dirSlot) {
	home = &d.slots[i]
	end := (i*dirSlotBytes + dirSlotBytes - 1) | (hostLineBytes - 1) // last byte of the tag's line
	return home, &home.tag, &d.slots[(end+dirSlotBytes)/dirSlotBytes&uint64(len(d.slots)-1)]
}

// ProbeSlot locates addr's table slot without creating one. Together with
// EntryAt and ReleaseSlot it lets eviction paths probe, mutate, and
// release an entry with a single hash walk instead of one per step. The
// index obeys the same validity contract as entry pointers: any insertion
// or release may move slots.
func (d *Directory) ProbeSlot(addr sim.Addr) (int, bool) {
	i, tag := d.bucket(addr)
	mask := uint64(len(d.slots) - 1)
	for ; ; i = (i + 1) & mask {
		t := d.slots[i].tag
		if t == tag {
			return int(i), true
		}
		if t == dirFree {
			return 0, false
		}
	}
}

// EntryAt returns the entry in slot i, as located by ProbeSlot.
func (d *Directory) EntryAt(i int) *Entry { return &d.slots[i] }

// ReleaseSlot is Release for a line already located at slot i: it removes
// the entry if the line has left the chip.
func (d *Directory) ReleaseSlot(i int) {
	if d.slots[i].OnChip() {
		return
	}
	d.used--
	// Backward-shift: walk the cluster after the hole; any entry whose
	// home bucket lies at or before the hole (cyclically) moves into it,
	// re-opening the hole at its old position.
	mask := uint64(len(d.slots) - 1)
	hole := uint64(i)
	j := hole
	for {
		j = (j + 1) & mask
		s := &d.slots[j]
		if s.tag == dirFree {
			break
		}
		if (j-d.idx(keyOfTag(s.tag)))&mask >= (j-hole)&mask {
			d.slots[hole] = *s
			hole = j
		}
	}
	d.slots[hole] = dirSlot{}
}

// Len returns the number of tracked lines (lines with on-chip state plus
// any not yet released).
func (d *Directory) Len() int { return d.used }

// ReplicationSnapshot walks all tracked lines and reports how many are
// resident in at least one LLC bank and how many in two or more (the
// paper's Figure 12 metric).
func (d *Directory) ReplicationSnapshot() (resident, replicated int) {
	for i := range d.slots {
		if d.slots[i].tag == dirFree {
			continue
		}
		n := d.slots[i].L2Count()
		if n >= 1 {
			resident++
		}
		if n >= 2 {
			replicated++
		}
	}
	return resident, replicated
}

// CheckInvariants validates protocol invariants over all entries, and
// the table's own: as many live slots as Len, each reachable from its
// home bucket without crossing a free one. It returns the first
// violation found. Tests call this after randomized traffic; a
// whole-Entry store through a table pointer, which frees a live slot,
// breaks the table's.
func (d *Directory) CheckInvariants() error {
	// Walk the table cyclically from a free slot, tracking where the
	// current cluster began: an entry is reachable iff its home bucket
	// lies in its cluster at or before it.
	mask := uint64(len(d.slots) - 1)
	start := -1
	for i := range d.slots {
		if d.slots[i].tag == dirFree {
			start = i
			break
		}
	}
	if start < 0 {
		return fmt.Errorf("table of %d slots has no free slot", len(d.slots))
	}
	live, run := 0, uint64(0) // run: slots since the last free one
	for k := range d.slots {
		i := (uint64(start) + uint64(k)) & mask
		if d.slots[i].tag == dirFree {
			run = 0
			continue
		}
		live++
		run++
		b, e := keyOfTag(d.slots[i].tag), &d.slots[i]
		if (i-d.idx(b))&mask >= run {
			return fmt.Errorf("block %#x in slot %d: unreachable from its home bucket %d past a free slot", b, i, d.idx(b))
		}
		if e.L1Owner >= 0 && !e.HasL1(int(e.L1Owner)) {
			return fmt.Errorf("block %#x: L1 owner %d not in sharer mask %016x", b, e.L1Owner, e.L1Sharers)
		}
		if e.L2Owner >= 0 && !e.HasL2(int(e.L2Owner)) {
			return fmt.Errorf("block %#x: L2 owner %d not in bank mask %016x", b, e.L2Owner, e.L2Sharers)
		}
	}
	if live != d.used {
		return fmt.Errorf("%d live slots, Len %d", live, d.used)
	}
	return nil
}

// StateDigest folds the directory's complete state into h: every live
// slot's table position, key and entry fields in table order (the table
// layout is a deterministic function of the operation sequence, so two
// directories that processed identical traffic digest identically), plus
// the live count and the lookup counter.
func (d *Directory) StateDigest(h uint64) uint64 {
	for i := range d.slots {
		s := &d.slots[i]
		if s.tag == dirFree {
			continue
		}
		h = cache.MixDigest(h, uint64(i))
		h = cache.MixDigest(h, keyOfTag(s.tag))
		h = cache.MixDigest(h, s.L1Sharers)
		h = cache.MixDigest(h, s.L2Sharers)
		h = cache.MixDigest(h, uint64(uint8(s.L1Owner))|uint64(uint8(s.L2Owner))<<8)
	}
	h = cache.MixDigest(h, uint64(d.used))
	h = cache.MixDigest(h, d.Lookups)
	return h
}

// DirCacheConfig sizes the per-home-node directory caches.
type DirCacheConfig struct {
	Entries int // entries per home node; a node reaches Assoc·max(1, sets>>k) of them (see DirCache)
	Assoc   int
}

// DirCache models the per-node on-chip directory entry caches the paper
// adds "to reduce the number of off-chip references": a hit means the
// directory state was on chip, a miss costs a memory-latency fetch. Only
// tags are modeled; authoritative state lives in Directory.
//
// Every call names home = Directory.Home(addr) for a directory of the
// same node count, so node h only ever sees blocks ≡ h (mod nodes). Their
// low k = TrailingZeros(nodes) bits are h's own, and a set index taken
// from the raw block number could reach only the 1/2^k of the sets whose
// low k bits match. Each node's cache is therefore built with sets>>k sets
// (at least one) and indexed, and tagged, by the block number shifted
// right by k: a bijection onto exactly those sets, so hits, misses and
// LRU order are those of the full-size array. The configured Entries per
// node thus hold Assoc·max(1, sets>>k) lines — 2048 of 32768 on the
// paper's 16-node chip; see Config.DirCacheEntries in internal/core.
type DirCache struct {
	per   []*cache.Cache
	shift uint // k: the home-node bits every block of one node shares

	Hits   uint64
	Misses uint64
}

// NewDirCache builds one tag cache per home node, all cut from one slab.
func NewDirCache(nodes int, cfg DirCacheConfig) *DirCache {
	geom := cache.Config{SizeBytes: cfg.Entries * sim.LineBytes, Assoc: cfg.Assoc}
	if err := geom.Validate(); err != nil {
		panic("coherence: invalid directory cache config: " + err.Error())
	}
	k := uint(bits.TrailingZeros(uint(nodes)))
	geom.SizeBytes = max(1, (cfg.Entries/cfg.Assoc)>>k) * cfg.Assoc * sim.LineBytes
	return &DirCache{per: cache.NewN(nodes, geom), shift: k}
}

// key maps addr to the line its home node's cache stores: the block
// number without the k bits the home node already fixes.
func (dc *DirCache) key(addr sim.Addr) sim.Addr {
	return sim.Addr(sim.BlockID(addr)>>dc.shift) << sim.LineShift
}

// Access touches the directory cache at home node for addr. It returns
// true on a hit; on a miss the entry is installed (the fetch from memory
// is the caller's latency to account).
func (dc *DirCache) Access(home int, addr sim.Addr) bool {
	c, a := dc.per[home], dc.key(addr)
	if _, ok := c.Lookup(a); ok {
		dc.Hits++
		return true
	}
	dc.Misses++
	c.Insert(a, cache.Shared, 0)
	return false
}

// PrefetchSet starts the host load of home's tag-cache set for addr
// ahead of a coming Access. It changes no state.
func (dc *DirCache) PrefetchSet(home int, addr sim.Addr) {
	dc.per[home].PrefetchSet(dc.key(addr))
}

// Peek reports whether home's directory cache currently holds addr
// without touching replacement state, counters or contents — the
// read-only probe the parallel engine's in-window latency estimator uses
// against the frozen shared tier.
func (dc *DirCache) Peek(home int, addr sim.Addr) bool {
	_, ok := dc.per[home].Probe(dc.key(addr))
	return ok
}

// StateDigest folds every home node's tag-cache state plus the hit/miss
// accounting into h.
func (dc *DirCache) StateDigest(h uint64) uint64 {
	for _, c := range dc.per {
		h = c.StateDigest(h)
	}
	h = cache.MixDigest(h, dc.Hits)
	h = cache.MixDigest(h, dc.Misses)
	return h
}

// Accesses returns total lookups (hits + misses), for live gauges.
func (dc *DirCache) Accesses() uint64 { return dc.Hits + dc.Misses }

// HitRate returns hits/(hits+misses), or 1 if untouched.
func (dc *DirCache) HitRate() float64 {
	t := dc.Hits + dc.Misses
	if t == 0 {
		return 1
	}
	return float64(dc.Hits) / float64(t)
}
