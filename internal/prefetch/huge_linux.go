package prefetch

import (
	"syscall"
	"unsafe"
)

// HugePages asks the kernel to back the 2 MB-aligned interior of s with
// transparent huge pages (madvise MADV_HUGEPAGE), so a hint or a load
// into a table far larger than the host TLB's 4 KB reach misses only in
// the data cache, not in the page walk too. Pages already faulted in
// stay small until the kernel collapses them, so call it on a fresh
// slice. s keeps its ordinary allocation and lifetime; a slice holding
// no whole aligned 2 MB page is left alone, and an error (a kernel
// without THP) is ignored, as the advice is only a hint.
func HugePages[T any](s []T) {
	if b := hugeInterior(s); len(b) > 0 {
		_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
	}
}

// hugeInterior returns the bytes of s that whole aligned huge pages
// cover. Subslicing one view of s keeps every address a typed pointer.
func hugeInterior[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var zero T
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := int(-start & (HugePageBytes - 1))
	hi := len(b) - int((start+uintptr(len(b)))&(HugePageBytes-1))
	if hi <= lo {
		return nil
	}
	return b[lo:hi]
}
