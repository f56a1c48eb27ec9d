package sim

// BuildZipf builds an alias table without consulting or filling NewZipf's
// memo, so tests can compare a shared table with a fresh one.
var BuildZipf = buildZipf

// ZipfMemoLen reports how many tables NewZipf's memo holds.
func ZipfMemoLen() int {
	zipfMemo.Lock()
	defer zipfMemo.Unlock()
	return len(zipfMemo.m)
}
