//go:build !amd64 && !arm64

package prefetch

import "unsafe"

// line is a no-op where no prefetch stub exists: the hint is an
// optimization, never a requirement.
func line(unsafe.Pointer) {}
