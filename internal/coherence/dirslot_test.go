package coherence

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"consim/internal/cache"
	"consim/internal/sim"
)

// TestDirectoryKeyDomain: the table's 32-bit tags cover the caches' line
// domain exactly. Line 0 and the last taggable line, cache.MaxLines-1,
// each go round trip through Get, Probe, ProbeSlot and Release, bounded
// and unbounded; a line at cache.MaxLines panics in every keyed lookup
// rather than alias the free marker.
func TestDirectoryKeyDomain(t *testing.T) {
	for _, lines := range []int{0, 1000} {
		d := NewDirectoryFor(16, lines)
		for _, b := range []uint64{0, cache.MaxLines - 1} {
			addr := sim.Addr(b) << sim.LineShift
			d.Get(addr).AddL2(3)
			e, ok := d.Probe(addr)
			if !ok || !e.HasL2(3) || d.Len() != 1 {
				t.Fatalf("lines %d, block %#x: Probe after Get = %v, %v (%d live)", lines, b, e, ok, d.Len())
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("lines %d, block %#x: %v", lines, b, err)
			}
			si, ok := d.ProbeSlot(addr)
			if !ok || d.EntryAt(si) != e {
				t.Fatalf("lines %d, block %#x: ProbeSlot = %d, %v", lines, b, si, ok)
			}
			e.DropL2(3)
			d.Release(addr)
			if _, ok := d.Probe(addr); ok || d.Len() != 0 {
				t.Fatalf("lines %d, block %#x: still tracked after Release (%d live)", lines, b, d.Len())
			}
		}
		over := sim.Addr(cache.MaxLines) << sim.LineShift
		for name, op := range map[string]func(){
			"Get":       func() { d.Get(over) },
			"Probe":     func() { d.Probe(over) },
			"ProbeSlot": func() { d.ProbeSlot(over) },
			"Release":   func() { d.Release(over) },
		} {
			func() {
				defer func() {
					if r := recover(); !strings.Contains(fmt.Sprint(r), "32-bit tag capacity") {
						t.Errorf("lines %d: %s(line MaxLines) recovered %v, want the tag-capacity panic", lines, name, r)
					}
				}()
				op()
			}()
		}
	}
}

// displacedDirectory returns a directory in which some entry sits past
// its home bucket, and that home bucket's slot: the live slot a probe
// for the displaced entry must cross.
func displacedDirectory(t *testing.T) (*Directory, int) {
	t.Helper()
	d := NewDirectoryFor(16, 1000)
	for b := uint64(0); b < 1000; b++ {
		addr := sim.Addr(b) << sim.LineShift
		d.Get(addr).AddL1(0)
		if i, _ := d.ProbeSlot(addr); d.idx(b) != uint64(i) {
			return d, int(d.idx(b))
		}
	}
	t.Fatal("no entry displaced from its home bucket")
	return nil, 0
}

// TestWholeEntryStoreReported: storing NewEntry() through a table
// pointer zeroes the tag in the entry's padding, freeing a live slot.
// CheckInvariants reports it: at a cluster's end as a live count short
// of Len, at a displaced entry's home bucket as that entry cut off.
// Clear, the in-place reset, keeps the tag and the table intact.
func TestWholeEntryStoreReported(t *testing.T) {
	d, h := displacedDirectory(t)
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("fresh table: %v", err)
	}
	e := d.EntryAt(h)
	e.Clear()
	if *e != (Entry{L1Owner: -1, L2Owner: -1, tag: e.tag}) || e.tag == dirFree {
		t.Fatalf("Clear left %+v", *e)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("after Clear: %v", err)
	}

	end := h
	for d.slots[end+1].tag != dirFree {
		end++
	}
	*d.EntryAt(end) = NewEntry()
	if err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "live slots") {
		t.Fatalf("whole-Entry store at a cluster's end: CheckInvariants = %v, want a live-count violation", err)
	}

	d, h = displacedDirectory(t)
	*d.EntryAt(h) = NewEntry()
	if err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("whole-Entry store at a home bucket: CheckInvariants = %v, want an unreachable entry", err)
	}
}

// TestPrefetchHintsCoverSlot: on a line-aligned table, the lines
// PrefetchProbe starts (a home bucket's first word and its tag) are
// every host line the bucket spans, a straddling one's two included, and
// PrefetchRelease's third is the line right after them — a tail line
// for the last home buckets, a power-of-two count and another alike.
func TestPrefetchHintsCoverSlot(t *testing.T) {
	for _, d := range []*Directory{NewDirectory(16), NewDirectoryFor(16, 49_152)} {
		d.Get(0)
		checkHintLines(t, d)
	}
}

func checkHintLines(t *testing.T, d *Directory) {
	t.Helper()
	line := func(p unsafe.Pointer) uintptr { return uintptr(p) / hostLineBytes }
	base := uintptr(unsafe.Pointer(&d.slots[0]))
	if base%hostLineBytes != 0 {
		t.Fatalf("table at %#x is not line-aligned", base)
	}
	tail := line(unsafe.Pointer(&d.slots[d.buckets]))
	straddles, intoTail := 0, 0
	for i := range int(d.buckets) {
		home, tag, next := d.hintSlots(uint64(i))
		lo := line(unsafe.Pointer(&d.slots[i]))
		hi := (uintptr(unsafe.Pointer(&d.slots[i])) + dirSlotBytes - 1) / hostLineBytes
		if line(unsafe.Pointer(home)) != lo || line(unsafe.Pointer(tag)) != hi {
			t.Fatalf("slot %d spans lines %d..%d; probe hints %d, %d", i, lo, hi,
				line(unsafe.Pointer(home)), line(unsafe.Pointer(tag)))
		}
		if hi != lo {
			straddles++
		}
		if got := line(unsafe.Pointer(next)); got != hi+1 {
			t.Fatalf("slot %d ends in line %d; release hints line %d, want %d", i, hi, got, hi+1)
		}
		if hi+1 >= tail {
			intoTail++
		}
	}
	if n := int(d.buckets); straddles != n/4 {
		t.Errorf("%d of %d home buckets straddle two lines, want a quarter", straddles, n)
	}
	if intoTail == 0 {
		t.Errorf("%d home buckets: no release hint reaches the tail", d.buckets)
	}
}
