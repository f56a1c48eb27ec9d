// Package workload provides statistical reference generators that stand
// in for the paper's four commercial server workloads (TPC-W, SPECjbb,
// TPC-H, SPECweb). The real workloads ran AIX + DB2/Zeus inside a
// full-system simulator; here each workload is a parameterized stochastic
// model whose memory behaviour is calibrated against the paper's Table II
// (cache-to-cache transfer rates, clean/dirty split, footprint in 64-byte
// blocks) and Table I (transaction granularity).
//
// Each 4-thread workload touches four kinds of memory:
//
//   - private: per-thread data (buffer-pool partitions, heaps). Most
//     references hit a small per-thread hot set; the rest sweep the full
//     partition (fast during the first lap, modeling install/warm-up,
//     then at a steady streaming rate). Sweep misses leave the chip.
//   - shared-read: data read by all threads (indexes, code, file cache):
//     a Zipf-hot set plus a slow cold sweep for coverage. Hot misses are
//     usually satisfied by a *clean* cache-to-cache transfer.
//   - migratory: read-modify-write episodes on a small region bouncing
//     between threads (locks, join/merge buffers); misses are satisfied
//     by *dirty* transfers.
//   - scan: a collaborative sequential sweep (table scans, request
//     streams) where each block is read ScanReadsPerBlock times in quick
//     succession by whichever threads are scanning; trailing reads hit
//     the leader's cache, producing clean transfers at a controlled rate.
//
// The per-workload parameters below reproduce the Table II ordering and
// (approximately) its magnitudes; calibration tests hold the model to
// tolerance bands.
package workload

import (
	"fmt"
	"math"
)

// Class identifies one of the paper's four commercial workloads.
type Class int

// The four consolidated server workloads of Table I.
const (
	TPCW Class = iota
	SPECjbb
	TPCH
	SPECweb
	NumClasses
)

// String returns the paper's workload name.
func (c Class) String() string {
	switch c {
	case TPCW:
		return "TPC-W"
	case SPECjbb:
		return "SPECjbb"
	case TPCH:
		return "TPC-H"
	case SPECweb:
		return "SPECweb"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Spec parameterizes one workload model. All block counts are in 64-byte
// cache lines at full (paper) scale; Scaled derives reduced-scale
// variants for fast tests.
type Spec struct {
	Class Class
	Name  string

	// Blocks is the total footprint (Table II: "# of 64 Byte blocks
	// accessed").
	Blocks int

	// Region sizing as fractions of Blocks. PrivFrac is divided evenly
	// among threads.
	PrivFrac, SharedFrac, MigFrac, ScanFrac float64

	// Reference mix: probability that a reference targets each region
	// (private gets the remainder).
	PShared, PMig, PScan float64

	// SweepWarm / SweepSteady are the fractions of private references
	// that advance the partition sweep, during the first lap (warming)
	// and afterwards (steady streaming). The rest hit the hot set.
	SweepWarm, SweepSteady float64

	// SharedColdWarm / SharedColdSteady are the analogous cold-sweep
	// fractions of shared references.
	SharedColdWarm, SharedColdSteady float64

	// HotBlocksPriv sizes the per-thread private hot set.
	HotBlocksPriv int

	// SharedHotBlocks bounds the shared-read hot set; it is sized so the
	// hot set exceeds one private LLC bank but fits the chip's aggregate
	// capacity, which is what turns shared-read misses into clean
	// cache-to-cache transfers rather than memory accesses.
	SharedHotBlocks int

	// Zipf skew for the private hot set and shared-read reuse.
	ThetaPriv, ThetaShared float64

	// ScanReadsPerBlock is how many consecutive scan references hit each
	// block before the scan cursor advances; reads after the first are
	// usually by other threads and become clean transfers.
	ScanReadsPerBlock int

	// WriteFrac is the store probability for private hot references;
	// WriteFracShared for shared hot references.
	WriteFrac, WriteFracShared float64

	// MigBurst is the number of references in one migratory
	// read-modify-write episode (the last reference is the write).
	MigBurst int

	// RefsPerTx is the number of memory references per transaction,
	// modeling Table I's differing transaction sizes.
	RefsPerTx int

	// ThinkCycles is the average number of non-memory execution cycles
	// between references on the in-order core.
	ThinkCycles float64

	// Phases, when non-empty, cycles the reference mix through the given
	// phase descriptors (§VII phase analysis). PhaseOffset shifts this
	// workload's position in the phase cycle (in per-thread references)
	// so experiments can align or misalign co-scheduled workloads.
	Phases      []Phase
	PhaseOffset uint64
}

// TableIITarget records the paper's measured statistics for validation
// and reporting.
type TableIITarget struct {
	C2CAll     float64 // fraction of private-LLC misses satisfied on-chip
	C2CClean   float64 // of those, fraction clean
	C2CDirty   float64 // of those, fraction dirty
	BlocksK    int     // footprint in thousands of 64B blocks
	TxDescribe string
}

// Specs returns the four workload models at full scale, indexed by Class.
func Specs() [NumClasses]Spec {
	return [NumClasses]Spec{
		TPCW: {
			Class:  TPCW,
			Name:   "TPC-W",
			Blocks: 1125 * 1000,
			// Online bookstore, browsing mix: a huge, thrashing
			// buffer-pool footprint; most misses leave the chip.
			PrivFrac: 0.74, SharedFrac: 0.20, MigFrac: 0.005, ScanFrac: 0.03,
			PShared: 0.20, PMig: 0.024, PScan: 0.020,
			SweepWarm: 0.55, SweepSteady: 0.055,
			SharedColdWarm: 0.30, SharedColdSteady: 0.05,
			HotBlocksPriv: 16384, SharedHotBlocks: 65536,
			ThetaPriv: 0.80, ThetaShared: 0.70,
			ScanReadsPerBlock: 4,
			WriteFrac:         0.10, WriteFracShared: 0.006,
			MigBurst:    4,
			RefsPerTx:   220_000, // 25 large web transactions per run
			ThinkCycles: 2.0,
		},
		SPECjbb: {
			Class:  SPECjbb,
			Name:   "SPECjbb",
			Blocks: 606 * 1000,
			// Java middleware: hot shared objects and JITed code drive
			// heavy clean sharing; little private streaming.
			PrivFrac: 0.38, SharedFrac: 0.52, MigFrac: 0.004, ScanFrac: 0.08,
			PShared: 0.42, PMig: 0.012, PScan: 0.120,
			SweepWarm: 0.50, SweepSteady: 0.020,
			SharedColdWarm: 0.30, SharedColdSteady: 0.012,
			HotBlocksPriv: 6144, SharedHotBlocks: 49152,
			ThetaPriv: 0.80, ThetaShared: 0.75,
			ScanReadsPerBlock: 8,
			WriteFrac:         0.14, WriteFracShared: 0.004,
			MigBurst:    4,
			RefsPerTx:   9_000, // 6400 small order-processing requests
			ThinkCycles: 2.2,
		},
		TPCH: {
			Class:  TPCH,
			Name:   "TPC-H",
			Blocks: 172 * 1000,
			// Decision support, query 12: collaborating scan/join
			// operators — small footprint, intense dirty sharing.
			PrivFrac: 0.30, SharedFrac: 0.38, MigFrac: 0.06, ScanFrac: 0.25,
			PShared: 0.30, PMig: 0.075, PScan: 0.028,
			SweepWarm: 0.50, SweepSteady: 0.032,
			SharedColdWarm: 0.25, SharedColdSteady: 0.006,
			HotBlocksPriv: 4096, SharedHotBlocks: 12288,
			ThetaPriv: 0.80, ThetaShared: 0.60,
			ScanReadsPerBlock: 4,
			WriteFrac:         0.06, WriteFracShared: 0.03,
			MigBurst:    3,
			RefsPerTx:   5_500_000, // one long query
			ThinkCycles: 1.8,
		},
		SPECweb: {
			Class:  SPECweb,
			Name:   "SPECweb",
			Blocks: 986 * 1000,
			// Web server: shared read-mostly file cache plus per-request
			// private state.
			PrivFrac: 0.55, SharedFrac: 0.34, MigFrac: 0.003, ScanFrac: 0.10,
			PShared: 0.35, PMig: 0.013, PScan: 0.044,
			SweepWarm: 0.55, SweepSteady: 0.050,
			SharedColdWarm: 0.30, SharedColdSteady: 0.02,
			HotBlocksPriv: 8192, SharedHotBlocks: 32768,
			ThetaPriv: 0.80, ThetaShared: 0.72,
			ScanReadsPerBlock: 6,
			WriteFrac:         0.05, WriteFracShared: 0.004,
			MigBurst:    4,
			RefsPerTx:   60_000, // 300 HTTP requests
			ThinkCycles: 2.0,
		},
	}
}

// TableII returns the paper's Table II values, indexed by Class.
func TableII() [NumClasses]TableIITarget {
	return [NumClasses]TableIITarget{
		TPCW:    {C2CAll: 0.15, C2CClean: 0.84, C2CDirty: 0.16, BlocksK: 1125, TxDescribe: "browsing mix, 25 web transactions"},
		SPECjbb: {C2CAll: 0.52, C2CClean: 0.94, C2CDirty: 0.06, BlocksK: 606, TxDescribe: "6400 requests, six warehouses"},
		TPCH:    {C2CAll: 0.69, C2CClean: 0.43, C2CDirty: 0.57, BlocksK: 172, TxDescribe: "query 12 on 512MB database"},
		SPECweb: {C2CAll: 0.37, C2CClean: 0.93, C2CDirty: 0.07, BlocksK: 986, TxDescribe: "300 HTTP requests"},
	}
}

// Validate reports whether the spec's fractions and sizes are coherent.
func (s Spec) Validate() error {
	if s.Blocks <= 0 {
		return fmt.Errorf("workload %s: non-positive footprint", s.Name)
	}
	if s.PrivFrac+s.SharedFrac+s.MigFrac+s.ScanFrac > 1.0001 {
		return fmt.Errorf("workload %s: region fractions exceed 1", s.Name)
	}
	if s.PShared+s.PMig+s.PScan > 1.0001 {
		return fmt.Errorf("workload %s: reference mix exceeds 1", s.Name)
	}
	if s.MigBurst <= 0 {
		return fmt.Errorf("workload %s: non-positive migratory burst", s.Name)
	}
	if s.RefsPerTx <= 0 {
		return fmt.Errorf("workload %s: non-positive transaction size", s.Name)
	}
	if s.HotBlocksPriv <= 0 {
		return fmt.Errorf("workload %s: non-positive private hot set", s.Name)
	}
	if s.SharedHotBlocks <= 0 {
		return fmt.Errorf("workload %s: non-positive shared hot set", s.Name)
	}
	if s.ScanReadsPerBlock <= 0 {
		return fmt.Errorf("workload %s: non-positive scan reads per block", s.Name)
	}
	for _, th := range []float64{s.ThetaPriv, s.ThetaShared} {
		if math.IsNaN(th) || math.IsInf(th, 0) || th < 0 {
			return fmt.Errorf("workload %s: Zipf skew %v is not a finite non-negative number", s.Name, th)
		}
	}
	if math.IsNaN(s.ThinkCycles) || math.IsInf(s.ThinkCycles, 0) || s.ThinkCycles < 0 {
		return fmt.Errorf("workload %s: think time %v is not a finite non-negative number", s.Name, s.ThinkCycles)
	}
	for _, p := range s.Phases {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	for _, f := range []float64{
		s.PrivFrac, s.SharedFrac, s.MigFrac, s.ScanFrac,
		s.PShared, s.PMig, s.PScan,
		s.SweepWarm, s.SweepSteady, s.SharedColdWarm, s.SharedColdSteady,
		s.WriteFrac, s.WriteFracShared,
	} {
		if math.IsNaN(f) || f < 0 || f > 1 {
			return fmt.Errorf("workload %s: fraction %v out of [0,1]", s.Name, f)
		}
	}
	return nil
}

// Scaled returns the spec with its footprint divided by factor, for fast
// tests that also divide cache capacities by the same factor (capacity
// *ratios*, which drive the behaviour, are preserved). The hot set and
// transaction size scale too.
func (s Spec) Scaled(factor int) Spec {
	if factor <= 1 {
		return s
	}
	out := s
	out.Blocks = maxInt(s.Blocks/factor, 4096)
	out.HotBlocksPriv = maxInt(s.HotBlocksPriv/factor, 64)
	out.SharedHotBlocks = maxInt(s.SharedHotBlocks/factor, 256)
	out.RefsPerTx = maxInt(s.RefsPerTx/factor, 1000)
	if len(s.Phases) > 0 {
		out.Phases = make([]Phase, len(s.Phases))
		for i, ph := range s.Phases {
			out.Phases[i] = ph
			if scaled := ph.Refs / uint64(factor); scaled >= 1000 {
				out.Phases[i].Refs = scaled
			} else {
				out.Phases[i].Refs = 1000
			}
		}
		out.PhaseOffset = s.PhaseOffset / uint64(factor)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ByName returns the spec whose Name matches (case-sensitive), for CLI
// use.
func ByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Regions holds the spec's region boundaries under one thread count (the
// layout depends on how the private partition splits), for O(1)
// classification of footprint block indices in the simulator's per-miss
// accounting.
type Regions struct {
	sharedBase, migBase, scanBase uint64
}

// Regions returns the classifier for this spec under the given thread
// count. Of(block) agrees with the generator's RegionOf for every block.
func (s Spec) Regions(threads int) Regions { return layoutFor(s, threads).regions() }

func (l layout) regions() Regions {
	return Regions{sharedBase: l.sharedBase, migBase: l.migBase, scanBase: l.scanBase}
}

// Of classifies a footprint block index.
func (r Regions) Of(block uint64) Region {
	switch {
	case block < r.sharedBase:
		return RegionPrivate
	case block < r.migBase:
		return RegionShared
	case block < r.scanBase:
		return RegionMigratory
	default:
		return RegionScan
	}
}

// RegionName names a region for reports.
func RegionName(r Region) string {
	switch r {
	case RegionPrivate:
		return "private"
	case RegionShared:
		return "shared"
	case RegionMigratory:
		return "migratory"
	case RegionScan:
		return "scan"
	}
	return "unknown"
}

// All returns the four classes in Table order, for sweeps.
func All() []Class {
	return []Class{TPCW, SPECjbb, TPCH, SPECweb}
}
