package sim

import (
	"math"
	"math/bits"
	"sync"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). It is not safe for concurrent use; each simulated thread
// owns its own RNG so streams are independent and runs are repeatable
// regardless of scheduling.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream identified by seed.
func (r *RNG) Seed(seed uint64) {
	// Avoid the all-zeros fixed point and decorrelate small seeds.
	r.state = seed + 0x9e3779b97f4a7c15
}

// State returns the generator's internal position in the stream: two
// RNGs at the same State produce the same values from then on, which is
// what the tests' state digests compare.
func (r *RNG) State() uint64 { return r.state }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). n must be positive.
// Range reduction is Lemire's multiply-shift (the high 64 bits of
// u * n) rather than a modulo: no integer division, and the residual
// bias (< n/2^64) is far below the modulo method's own bias.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	hi, _ := bits.Mul64(r.Uint64(), n)
	return hi
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Split derives an independent generator from this one; used to fan a
// single experiment seed out to per-thread streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^theta. The per-rank masses come from the inverse-CDF
// power-law approximation (O(1), close enough to true Zipf for cache-reuse
// modeling), but sampling uses a precomputed Vose alias table: one RNG
// draw, one table probe, no math.Pow in the hot loop.
//
// A Zipf is immutable once built: Sample and N only read it, so one table
// serves any number of generators and goroutines. NewZipf hands out one
// shared table per (n, theta) for the life of the process.
type Zipf struct {
	n     uint64
	slots []zipfSlot
}

// zipfSlot is one alias-table bucket: the acceptance threshold for the
// low 64 product bits and the rank to fall back to on rejection. Packing
// both into one slot makes a sample a single table load. The threshold
// is kept as two 32-bit halves so the slot packs to 12 bytes, where a
// uint64 field would align it to 16; low half first, so on a
// little-endian host the compiler reads both with one 8-byte load.
type zipfSlot struct {
	threshLo, threshHi uint32
	alias              uint32
}

// thresh returns the slot's acceptance threshold.
func (s zipfSlot) thresh() uint64 { return uint64(s.threshLo) | uint64(s.threshHi)<<32 }

// setThresh stores t as the slot's acceptance threshold.
func (s *zipfSlot) setThresh(t uint64) { s.threshLo, s.threshHi = uint32(t), uint32(t>>32) }

// NewZipf returns a sampler over [0, n) with skew theta in (0, 1) U (1, inf).
// theta near 0 approaches uniform; larger theta concentrates mass on low
// ranks. theta == 1 is remapped to 0.999 to keep the closed form valid.
// n must fit in 32 bits (alias entries are packed); the simulator's hot
// sets are orders of magnitude smaller. theta must not be NaN.
//
// The sampler is shared: every call with the same n and (remapped) theta
// returns the same table. The first call in a process pays the O(n) pow
// calls; later ones are a map lookup. The memo holds every table the
// process has asked for, which for the workload models is at most two per
// workload class per (scale, thread layout) — 194 560 12-byte slots,
// about 2.3 MB, for the four classes at paper scale.
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("sim: Zipf over empty range")
	}
	if n > math.MaxUint32 {
		panic("sim: Zipf range exceeds 32-bit alias capacity")
	}
	if math.IsNaN(theta) {
		// A NaN key never equals itself: every call would add an entry.
		panic("sim: Zipf skew is NaN")
	}
	if theta == 1 {
		theta = 0.999
	}
	k := zipfKey{n, theta}
	zipfMemo.Lock()
	z := zipfMemo.m[k]
	zipfMemo.Unlock()
	if z != nil {
		return z
	}
	// Build outside the lock so first builds of different keys overlap;
	// if two callers race on one key, the first to store wins.
	z = buildZipf(n, theta)
	zipfMemo.Lock()
	defer zipfMemo.Unlock()
	if prev := zipfMemo.m[k]; prev != nil {
		return prev
	}
	zipfMemo.m[k] = z
	return z
}

// zipfKey identifies a table: its range and its skew after the theta == 1
// remap.
type zipfKey struct {
	n     uint64
	theta float64
}

// zipfMemo is NewZipf's process-wide table cache. Entries are never
// mutated or removed, so a returned table stays valid and unchanged.
var zipfMemo = struct {
	sync.Mutex
	m map[zipfKey]*Zipf
}{m: map[zipfKey]*Zipf{}}

// buildZipf computes the alias table for (n, theta); NewZipf has checked
// n and remapped theta.
func buildZipf(n uint64, theta float64) *Zipf {
	om := 1 - theta
	// Per-rank masses of the inverse power-law CDF on [1, n+1): rank k
	// captures u in [u_k, u_{k+1}) with u_k = ((k+1)^(1-t) - 1) / hiM1.
	// The sequence ends at exactly 1, so pinning the last boundary folds
	// any floating-point tail into rank n-1 (matching the old clamp).
	hiM1 := math.Pow(float64(n+1), om) - 1
	scaled := make([]float64, n)
	prev := 0.0
	for k := uint64(0); k < n; k++ {
		uk := (math.Pow(float64(k+2), om) - 1) / hiM1
		if k == n-1 {
			uk = 1
		}
		scaled[k] = (uk - prev) * float64(n)
		prev = uk
	}
	// Vose alias construction: pair each under-full rank with an over-full
	// donor so every table slot splits between at most two ranks. The two
	// worklists share one array: under-full ranks stack up from the front,
	// over-full donors from the back.
	z := &Zipf{n: n, slots: make([]zipfSlot, n)}
	work := make([]uint32, n)
	ns, nl := 0, 0
	for i := uint64(0); i < n; i++ {
		z.slots[i].alias = uint32(i)
		if scaled[i] < 1 {
			work[ns] = uint32(i)
			ns++
		} else {
			nl++
			work[n-uint64(nl)] = uint32(i)
		}
	}
	for ns > 0 && nl > 0 {
		s := work[ns-1]
		ns--
		l := work[n-uint64(nl)]
		z.slots[s].setThresh(fracToThresh(scaled[s]))
		z.slots[s].alias = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			nl--
			work[ns] = l
			ns++
		}
	}
	// Leftovers on either list hold mass 1 up to rounding: always accept.
	for i := 0; i < ns; i++ {
		z.slots[work[i]].setThresh(^uint64(0))
	}
	for i := 0; i < nl; i++ {
		z.slots[work[n-uint64(i)-1]].setThresh(^uint64(0))
	}
	return z
}

// fracToThresh maps an acceptance probability in [0, 1] to a threshold on
// a uniform 64-bit value.
func fracToThresh(p float64) uint64 {
	if p >= 1 {
		return ^uint64(0)
	}
	if p <= 0 {
		return 0
	}
	return uint64(math.Ldexp(p, 64))
}

// Sample draws a rank using randomness from r: the high product bits pick
// a uniform table slot, the low bits split the slot between its two ranks.
func (z *Zipf) Sample(r *RNG) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), z.n)
	s := z.slots[hi]
	if lo < s.thresh() {
		return hi
	}
	return uint64(s.alias)
}

// N returns the size of the sampled range.
func (z *Zipf) N() uint64 { return z.n }
