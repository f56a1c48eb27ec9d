package prefetch

import "testing"

// TestLineIsInert pins the only contract a hint has: whatever the
// architecture's stub does, the pointee is left alone — first, last and
// interior elements of a slice, and a lone heap value.
func TestLineIsInert(t *testing.T) {
	s := make([]uint64, 1<<12)
	for i := range s {
		s[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for _, i := range []int{0, 1, len(s) / 2, len(s) - 1} {
		Line(&s[i])
	}
	for i, v := range s {
		if v != uint64(i)*0x9e3779b97f4a7c15 {
			t.Fatalf("s[%d] changed to %#x", i, v)
		}
	}
	type pair struct{ a, b uint64 }
	p := &pair{1, 2}
	Line(p)
	if *p != (pair{1, 2}) {
		t.Fatalf("pointee changed: %+v", *p)
	}
}
