// Package prefetch issues host cache prefetch hints. The simulator's big
// tables (directory, LLC bank tags, directory caches) live in host DRAM
// at paper scale and are reached through data-dependent addresses the
// hardware prefetchers cannot guess; a caller that knows an address a
// few hundred nanoseconds before it needs the data says so here.
//
// A hint is not a load: it retires at once, never faults and never
// stalls the pipeline behind the miss it starts, which is the whole
// point — a Go read of the same word would hold the reorder buffer until
// the data arrived. A hint into a table far larger than the TLB's reach
// still pays a page walk, so the package also advises such tables onto
// huge pages (HugePages). It is the one place the module needs unsafe
// (to hand a typed pointer to the assembly stub, and a slice's bytes to
// madvise), so callers stay free of it.
package prefetch

import "unsafe"

// Line starts pulling the host cache line holding *p into every cache
// level (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64, nothing
// elsewhere). It reads and changes no program state, so p may be stale
// by the time the line arrives; it must still point into a live object.
func Line[T any](p *T) { line(unsafe.Pointer(p)) }

// HugePageBytes is the transparent huge page size HugePages advises for:
// 2 MB on the 4 KB-page amd64 and arm64 kernels it targets. Callers also
// take it as the size from which a randomly probed table outgrows the
// host's private caches.
const HugePageBytes = 2 << 20
