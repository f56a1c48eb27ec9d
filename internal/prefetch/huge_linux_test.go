package prefetch

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// mapping is one /proc/self/smaps entry: its address range and VmFlags.
type mapping struct {
	start, end uintptr
	flags      []string
}

func readSmaps(t *testing.T) []mapping {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	var out []mapping
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmFlags:"); ok {
			if len(out) > 0 {
				out[len(out)-1].flags = strings.Fields(rest)
			}
			continue
		}
		// A mapping header starts "lo-hi perms ..."; field lines start
		// with a name and a colon.
		rng, _, _ := strings.Cut(line, " ")
		los, his, ok := strings.Cut(rng, "-")
		if !ok {
			continue
		}
		lo, err1 := strconv.ParseUint(los, 16, 64)
		hi, err2 := strconv.ParseUint(his, 16, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		out = append(out, mapping{start: uintptr(lo), end: uintptr(hi)})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// overlapping returns the mappings that intersect [lo, hi).
func overlapping(ms []mapping, lo, hi uintptr) []mapping {
	var out []mapping
	for _, m := range ms {
		if m.start < hi && lo < m.end {
			out = append(out, m)
		}
	}
	return out
}

func hasFlag(m mapping, f string) bool {
	for _, g := range m.flags {
		if g == f {
			return true
		}
	}
	return false
}

// TestHugePagesAdvisesAlignedInterior checks the advice where the kernel
// records it: every mapping over a 4 MB slice's aligned 2 MB interior
// carries the hg (MADV_HUGEPAGE) VmFlag, and a slice under 2 MB, which
// holds no whole huge page, is left as it was.
func TestHugePagesAdvisesAlignedInterior(t *testing.T) {
	if _, err := os.Stat("/sys/kernel/mm/transparent_hugepage"); err != nil {
		t.Skip("kernel without transparent huge pages")
	}
	small := make([]uint64, (1<<20)/8)
	big := make([]uint64, (4<<20)/8)
	HugePages(small)
	HugePages(big)

	const huge = uintptr(HugePageBytes)
	bigStart := uintptr(unsafe.Pointer(&big[0]))
	lo := (bigStart + huge - 1) &^ (huge - 1)
	hi := (bigStart + uintptr(len(big))*8) &^ (huge - 1)
	if hi <= lo {
		t.Fatalf("a 4 MB slice at %#x holds no aligned 2 MB page", bigStart)
	}
	smallStart := uintptr(unsafe.Pointer(&small[0]))
	smallEnd := smallStart + uintptr(len(small))*8

	ms := readSmaps(t)
	over := overlapping(ms, lo, hi)
	if len(over) == 0 {
		t.Fatalf("no mapping covers [%#x, %#x)", lo, hi)
	}
	for _, m := range over {
		if !hasFlag(m, "hg") {
			t.Errorf("mapping %#x-%#x over the advised interior [%#x, %#x) has VmFlags %v, want hg", m.start, m.end, lo, hi, m.flags)
		}
	}
	for _, m := range overlapping(ms, smallStart, smallEnd) {
		if hasFlag(m, "hg") {
			t.Errorf("mapping %#x-%#x under the 1 MB slice [%#x, %#x) was advised: VmFlags %v", m.start, m.end, smallStart, smallEnd, m.flags)
		}
	}
	runtime.KeepAlive(small)
	runtime.KeepAlive(big)
}

// TestHugePagesLeavesContents: the advice moves no data, whether it
// lands before or after the slice is written.
func TestHugePagesLeavesContents(t *testing.T) {
	s := make([]uint64, (5<<20)/8)
	for i := range s {
		s[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	HugePages(s)
	for i, v := range s {
		if v != uint64(i)*0x9e3779b97f4a7c15 {
			t.Fatalf("s[%d] changed to %#x", i, v)
		}
	}
}
