// Package vm models the virtualization layer of the consolidated server:
// each virtual machine wraps one 4-thread workload instance, owns a
// private slice of the physical address space (the paper's "completely
// private address space; no data is shared across workloads"), and
// accumulates the per-VM statistics that §V reports.
package vm

import (
	"fmt"
	"math/bits"

	"consim/internal/cache"
	"consim/internal/prefetch"
	"consim/internal/sim"
	"consim/internal/workload"
)

// Stats accumulates one VM's measurement-window counters.
type Stats struct {
	// Refs is total memory references issued.
	Refs uint64
	// PrivMisses counts misses in the last level of *private* cache —
	// the events whose latency the paper's "miss latency" metric
	// averages.
	PrivMisses uint64
	// LLCMisses counts misses in the LLC bank the reference was sent to
	// (the paper's per-VM miss rate numerator).
	LLCMisses uint64
	// C2CClean / C2CDirty count private misses satisfied by an on-chip
	// cache-to-cache transfer of a clean / dirty line (Table II).
	C2CClean uint64
	C2CDirty uint64
	// MemReads counts demand fetches that left the chip.
	MemReads uint64
	// Invalidations counts remote copies killed by this VM's stores.
	Invalidations uint64
	// Upgrades counts stores that hit a Shared line and had to obtain
	// exclusivity through the directory.
	Upgrades uint64
	// MissLatSum accumulates the latency of every private miss.
	MissLatSum sim.Cycle
	// RegionMisses breaks LLC misses down by footprint region
	// (private, shared, migratory, scan) — a diagnostic for the
	// workload models' calibration.
	RegionMisses [4]uint64
	// NetCycles accumulates interconnect cycles attributed to this VM's
	// requests (used for the §V-A interconnect-latency observations).
	NetCycles sim.Cycle
}

// C2C returns total cache-to-cache transfers.
func (s *Stats) C2C() uint64 { return s.C2CClean + s.C2CDirty }

// MissRate returns LLC misses per reference (the paper's per-VM LLC miss
// rate).
func (s *Stats) MissRate() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.LLCMisses) / float64(s.Refs)
}

// AvgMissLatency returns mean cycles to satisfy a private-level miss.
func (s *Stats) AvgMissLatency() float64 {
	if s.PrivMisses == 0 {
		return 0
	}
	return float64(s.MissLatSum) / float64(s.PrivMisses)
}

// C2CFraction returns the fraction of private misses satisfied on chip.
func (s *Stats) C2CFraction() float64 {
	if s.PrivMisses == 0 {
		return 0
	}
	return float64(s.C2C()) / float64(s.PrivMisses)
}

// C2COfLLCMisses returns the fraction of misses past the core's own LLC
// bank that were satisfied by another on-chip cache. In the private-LLC
// configuration this is Table II's "percent of accesses resulting in a
// cache-to-cache transfer" (the last level of private cache is the
// private L2, so its misses are the denominator).
func (s *Stats) C2COfLLCMisses() float64 {
	onPath := s.LLCMisses
	if onPath == 0 {
		return 0
	}
	return float64(s.C2C()) / float64(onPath)
}

// C2CDirtyShare returns the dirty fraction of cache-to-cache transfers
// (Table II's clean/dirty split).
func (s *Stats) C2CDirtyShare() float64 {
	if s.C2C() == 0 {
		return 0
	}
	return float64(s.C2CDirty) / float64(s.C2C())
}

// VM is one consolidated guest.
type VM struct {
	ID    int
	Gen   *workload.Generator
	Base  sim.Addr // start of this VM's private physical region
	Stats Stats

	touched []uint64 // bitset over footprint blocks
	nTouch  uint64
}

// New builds VM id for the given workload generator, placing its address
// space at base.
func New(id int, gen *workload.Generator, base sim.Addr) *VM {
	if base%sim.LineBytes != 0 {
		panic(fmt.Sprintf("vm: unaligned base %#x", base))
	}
	fp := gen.FootprintBlocks()
	return &VM{
		ID:      id,
		Gen:     gen,
		Base:    base,
		touched: make([]uint64, (fp+63)/64),
	}
}

// Name returns the workload name.
func (v *VM) Name() string { return v.Gen.Spec().Name }

// Class returns the workload class.
func (v *VM) Class() workload.Class { return v.Gen.Spec().Class }

// AddrOf maps a workload-relative block index into this VM's physical
// region.
func (v *VM) AddrOf(block uint64) sim.Addr {
	return v.Base + sim.Addr(block*sim.LineBytes)
}

// BlockOf inverts AddrOf.
func (v *VM) BlockOf(addr sim.Addr) uint64 {
	return uint64(addr-v.Base) / sim.LineBytes
}

// Owns reports whether addr falls inside this VM's region.
func (v *VM) Owns(addr sim.Addr) bool {
	return addr >= v.Base && v.BlockOf(addr) < v.Gen.FootprintBlocks()
}

// Touch records that block was referenced; the distinct-block count is
// Table II's footprint column.
func (v *VM) Touch(block uint64) {
	w, b := block/64, block%64
	if v.touched[w]&(1<<b) == 0 {
		v.touched[w] |= 1 << b
		v.nTouch++
	}
}

// PrefetchTouch starts the host load of block's footprint-bitmap word
// ahead of a coming Touch. It changes no state.
func (v *VM) PrefetchTouch(block uint64) { prefetch.Line(&v.touched[block/64]) }

// TouchedBlocks returns the number of distinct 64-byte blocks referenced.
func (v *VM) TouchedBlocks() uint64 { return v.nTouch }

// TouchWords returns the length of a footprint bitmap shadow (one uint64
// per 64 blocks), for engines that track touches privately per domain
// and fold them in with MergeTouched.
func (v *VM) TouchWords() int { return len(v.touched) }

// MergeTouched ORs a shadow footprint bitmap (as built by a parallel
// engine's per-domain workers) into the VM's own and recomputes the
// distinct-block count. Idempotent, so repeated folds of a cumulative
// shadow are safe.
func (v *VM) MergeTouched(shadow []uint64) {
	for i, w := range shadow {
		v.touched[i] |= w
	}
	var n uint64
	for _, w := range v.touched {
		n += uint64(bits.OnesCount64(w))
	}
	v.nTouch = n
}

// ResetStats clears the measurement counters (footprint tracking is
// cumulative, matching the paper's whole-run block counts).
func (v *VM) ResetStats() { v.Stats = Stats{} }

// Layout places one region per footprint (in blocks; names[i] names VM
// i's workload) back to back from address 0, each starting on an
// align-byte boundary (a multiple of the line size), and returns the
// regions' bases. The caches tag only cache.MaxLines lines, so a region
// reaching past the last of them is an error naming its VM — returned
// before any VM sizes its footprint bitmap, however large the footprints.
func Layout(footprints []uint64, names []string, align sim.Addr) ([]sim.Addr, error) {
	alignLines := uint64(align / sim.LineBytes)
	bases := make([]sim.Addr, len(footprints))
	var start uint64 // in lines
	for i, fp := range footprints {
		if fp > cache.MaxLines || start > cache.MaxLines-fp {
			return nil, fmt.Errorf("vm: VM %d (%s) needs %d lines from line %d, past the %d lines the caches can tag",
				i, names[i], fp, start, cache.MaxLines)
		}
		bases[i] = sim.Addr(start * sim.LineBytes)
		start = (start + fp + alignLines - 1) / alignLines * alignLines
	}
	return bases, nil
}
