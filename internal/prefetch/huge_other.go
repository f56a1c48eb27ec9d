//go:build !linux

package prefetch

// HugePages does nothing outside Linux: there is no portable way to ask
// for huge pages on an ordinary allocation, and the advice is only a
// hint.
func HugePages[T any](s []T) {}
