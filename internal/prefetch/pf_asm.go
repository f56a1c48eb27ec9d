//go:build amd64 || arm64

package prefetch

import "unsafe"

// line is the per-architecture prefetch stub (pf_amd64.s, pf_arm64.s).
//
//go:noescape
func line(p unsafe.Pointer)
