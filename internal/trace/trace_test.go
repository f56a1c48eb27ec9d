package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"strings"
	"testing"

	"consim/internal/workload"
)

func smallGen(seed uint64) *workload.Generator {
	return workload.NewGenerator(workload.Specs()[workload.TPCH].Scaled(64), 4, seed)
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h, err := Capture(&buf, smallGen(7), 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	if h.Records != 4*500 {
		t.Fatalf("captured %d records", h.Records)
	}

	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Header().Threads != 4 || rd.Header().Records != 2000 {
		t.Fatalf("header = %+v", rd.Header())
	}
	if rd.Spec().Class != workload.TPCH {
		t.Error("spec not preserved")
	}

	// Replay must reproduce the generator's per-thread streams exactly.
	ref := smallGen(7)
	for i := uint64(0); i < 500; i++ {
		for th := 0; th < 4; th++ {
			want := ref.Next(th)
			got := rd.Next(th)
			if got != want {
				t.Fatalf("thread %d ref %d: got %+v want %+v", th, i, got, want)
			}
		}
	}
}

func TestReplayLoops(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Capture(&buf, smallGen(1), 2, 10); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	first := rd.Next(0)
	for i := 0; i < 9; i++ {
		rd.Next(0)
	}
	// Stream wrapped: the next access repeats the first.
	if rd.Next(0) != first {
		t.Error("replay did not loop")
	}
	if rd.Loops(0) != 1 {
		t.Errorf("Loops = %d", rd.Loops(0))
	}
	if rd.TotalRefs() != 11 {
		t.Errorf("TotalRefs = %d", rd.TotalRefs())
	}
}

func TestFootprintPreserved(t *testing.T) {
	g := smallGen(3)
	var buf bytes.Buffer
	if _, err := Capture(&buf, g, 4, 100); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rd.FootprintBlocks() != g.FootprintBlocks() {
		t.Errorf("footprint %d != %d", rd.FootprintBlocks(), g.FootprintBlocks())
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOTATRACE????")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Capture(&buf, smallGen(1), 2, 5); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-3] // chop mid-record
	if _, err := NewReader(bytes.NewReader(raw)); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestEmptyThreadRejected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, smallGen(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Only thread 0 gets records.
	g := smallGen(1)
	for i := 0; i < 5; i++ {
		if err := w.Record(0, g.Next(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(&buf); err == nil {
		t.Error("trace with empty thread stream accepted")
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, smallGen(1), 0); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := NewWriter(&buf, smallGen(1), 300); err == nil {
		t.Error("too many threads accepted")
	}
}

func TestWriteAfterFlushRejected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, smallGen(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	g := smallGen(1)
	if err := w.Record(0, g.Next(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Record(0, g.Next(0)); err == nil {
		t.Error("write after Flush accepted")
	}
}

// encodeTrace hand-assembles a trace file, so tests can write headers and
// records no Writer would.
func encodeTrace(t testing.TB, h Header, recs ...[recordBytes]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(magic)
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		buf.Write(r[:])
	}
	return buf.Bytes()
}

func rec(thread byte, block uint64) (r [recordBytes]byte) {
	r[0] = thread
	binary.LittleEndian.PutUint64(r[2:], block)
	return r
}

// TestHostileInputRejected covers the corrupt shapes that used to pass
// NewReader and then panic during replay (vm.Touch indexes the footprint
// bitmap with Block, unchecked): each must come back as an error naming
// the offending record.
func TestHostileInputRejected(t *testing.T) {
	spec := smallGen(1).Spec()
	good := Header{Spec: spec, Threads: 2, Footprint: 100}
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"block at footprint", encodeTrace(t, good, rec(0, 5), rec(1, 7), rec(0, 100)), "record 2: block 100"},
		{"block far outside", encodeTrace(t, good, rec(0, ^uint64(0)), rec(1, 7)), "record 0: block"},
		{"zero footprint", encodeTrace(t, Header{Spec: spec, Threads: 2}, rec(0, 0), rec(1, 0)), "footprint"},
		{"absurd footprint", encodeTrace(t, Header{Spec: spec, Threads: 1, Footprint: 1 << 40}, rec(0, 0)), "footprint"},
		// Its last block would be the caches' empty-way tag.
		{"2^32-block footprint", encodeTrace(t, Header{Spec: spec, Threads: 1, Footprint: 1 << 32}, rec(0, 1<<32-1)), "footprint of 4294967296 blocks"},
		{"thread out of range", encodeTrace(t, good, rec(0, 1), rec(2, 1)), "record 1: thread 2"},
		{"invalid spec", encodeTrace(t, Header{Threads: 1, Footprint: 10}, rec(0, 1)), "spec"},
	} {
		_, err := NewReader(bytes.NewReader(tc.raw))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// The same header with every block inside the footprint is fine, and
	// a record count claimed by the header is ignored in favour of the
	// stream's.
	claimed := good
	claimed.Records = 1 << 50
	rd, err := NewReader(bytes.NewReader(encodeTrace(t, claimed, rec(0, 99), rec(1, 0))))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Header().Records != 2 {
		t.Errorf("Records = %d, want the 2 in the stream", rd.Header().Records)
	}

	// The largest footprint the caches can tag, with a record at its last
	// block, is accepted.
	widest := Header{Spec: spec, Threads: 1, Footprint: 1<<32 - 1}
	if _, err := NewReader(bytes.NewReader(encodeTrace(t, widest, rec(0, 1<<32-2)))); err != nil {
		t.Errorf("footprint of 2^32-1 blocks rejected: %v", err)
	}
}

// FuzzNewReader feeds NewReader arbitrary bytes: it must return an error
// or a Reader that replays safely — every block inside the footprint the
// VM layer will size its bitmap by — and never panic.
func FuzzNewReader(f *testing.F) {
	var valid bytes.Buffer
	if _, err := Capture(&valid, smallGen(1), 2, 20); err != nil {
		f.Fatal(err)
	}
	spec := smallGen(1).Spec()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3])
	f.Add(encodeTrace(f, Header{Spec: spec, Threads: 1, Footprint: 10}, rec(0, 10)))
	f.Add(encodeTrace(f, Header{Spec: spec, Threads: 1}, rec(0, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		h := rd.Header()
		if h.Footprint == 0 || rd.FootprintBlocks() != h.Footprint {
			t.Fatalf("accepted footprint %d (FootprintBlocks %d)", h.Footprint, rd.FootprintBlocks())
		}
		// One lap of every stream plus the wrap.
		for th := 0; th < h.Threads; th++ {
			for i := uint64(0); i <= h.Records; i++ {
				if a := rd.Next(th); a.Block >= h.Footprint {
					t.Fatalf("thread %d replayed block %d outside the %d-block footprint", th, a.Block, h.Footprint)
				}
			}
		}
	})
}
