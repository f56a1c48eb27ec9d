// Package trace records and replays workload reference streams — the
// equivalent of the paper's workload checkpoints: a captured trace runs
// "the same set of transactions ... in each simulation", decoupling
// experiment repeatability from the generator that produced the stream.
//
// The on-disk format is a gob header (the workload Spec, thread count,
// and footprint) followed by fixed-width binary records. Replay loops
// when a thread's records are exhausted, matching the paper's "if a
// workload happened to end prematurely, it was restarted to keep the
// system at capacity".
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"consim/internal/cache"
	"consim/internal/workload"
)

// magic identifies consim trace files.
const magic = "CONSIMTR1"

// Header describes a recorded trace.
type Header struct {
	Spec      workload.Spec
	Threads   int
	Footprint uint64
	Records   uint64
}

// maxFootprintBlocks bounds a header's footprint: the caches tag line
// numbers below cache.MaxLines (2^32−1), so replaying a larger address
// space cannot work, and a corrupt count would otherwise size the VM's
// footprint bitmap. Several VMs together can still pass it; NewSystem's
// layout (vm.Layout) rejects those.
const maxFootprintBlocks = cache.MaxLines

// record is the 10-byte wire format: thread (1), flags (1), block (8).
const recordBytes = 10

const flagWrite = 1

// Writer streams (thread, access) records to w.
type Writer struct {
	bw      *bufio.Writer
	header  Header
	records uint64
	closed  bool
}

// NewWriter writes a trace header for the given source and returns a
// Writer for its records.
func NewWriter(w io.Writer, src workload.Source, threads int) (*Writer, error) {
	if threads <= 0 || threads > 255 {
		return nil, fmt.Errorf("trace: thread count %d out of 1..255", threads)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	h := Header{Spec: src.Spec(), Threads: threads, Footprint: src.FootprintBlocks()}
	if err := gob.NewEncoder(bw).Encode(h); err != nil {
		return nil, fmt.Errorf("trace: encoding header: %w", err)
	}
	return &Writer{bw: bw, header: h}, nil
}

// Record appends one access for thread t.
func (w *Writer) Record(t int, a workload.Access) error {
	if w.closed {
		return fmt.Errorf("trace: write after Flush")
	}
	var buf [recordBytes]byte
	buf[0] = byte(t)
	if a.Write {
		buf[1] = flagWrite
	}
	binary.LittleEndian.PutUint64(buf[2:], a.Block)
	if _, err := w.bw.Write(buf[:]); err != nil {
		return err
	}
	w.records++
	return nil
}

// Records returns the number of accesses written.
func (w *Writer) Records() uint64 { return w.records }

// Flush finalizes the stream. The record count lives implicitly in the
// stream length; Flush only drains buffers.
func (w *Writer) Flush() error {
	w.closed = true
	return w.bw.Flush()
}

// Capture runs src for refsPerThread references on each of threads
// round-robin and writes the trace to w.
func Capture(w io.Writer, src workload.Source, threads int, refsPerThread uint64) (*Header, error) {
	tw, err := NewWriter(w, src, threads)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < refsPerThread; i++ {
		for t := 0; t < threads; t++ {
			if err := tw.Record(t, src.Next(t)); err != nil {
				return nil, err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	h := tw.header
	h.Records = tw.Records()
	return &h, nil
}

// Reader replays a recorded trace as a workload.Source. Each thread's
// accesses replay in recorded order and loop at the end (checkpoint
// restart).
type Reader struct {
	header  Header
	streams [][]workload.Access
	pos     []int
	refs    []uint64
}

// NewReader loads a whole trace from r.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(got) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", got)
	}
	var h Header
	if err := gob.NewDecoder(br).Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: decoding header: %w", err)
	}
	if h.Threads <= 0 || h.Threads > 255 {
		return nil, fmt.Errorf("trace: corrupt thread count %d", h.Threads)
	}
	if h.Footprint == 0 || h.Footprint > maxFootprintBlocks {
		return nil, fmt.Errorf("trace: corrupt footprint of %d blocks (want 1..%d)", h.Footprint, uint64(maxFootprintBlocks))
	}
	if err := h.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("trace: corrupt workload spec: %w", err)
	}
	h.Records = 0 // counted from the stream, whatever the header claims
	rd := &Reader{
		header:  h,
		streams: make([][]workload.Access, h.Threads),
		pos:     make([]int, h.Threads),
		refs:    make([]uint64, h.Threads),
	}
	var buf [recordBytes]byte
	for {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("trace: truncated record: %w", err)
		}
		// Replay indexes per-thread streams and the VM's footprint bitmap
		// with these two fields unchecked, so they are checked here.
		n := rd.header.Records
		t := int(buf[0])
		if t >= h.Threads {
			return nil, fmt.Errorf("trace: record %d: thread %d of %d", n, t, h.Threads)
		}
		block := binary.LittleEndian.Uint64(buf[2:])
		if block >= h.Footprint {
			return nil, fmt.Errorf("trace: record %d: block %d outside the %d-block footprint", n, block, h.Footprint)
		}
		rd.streams[t] = append(rd.streams[t], workload.Access{
			Block: block,
			Write: buf[1]&flagWrite != 0,
		})
		rd.header.Records++
	}
	for t, s := range rd.streams {
		if len(s) == 0 {
			return nil, fmt.Errorf("trace: thread %d has no records", t)
		}
	}
	return rd, nil
}

// Header returns the trace metadata.
func (r *Reader) Header() Header { return r.header }

// Next replays thread t's next access, looping at end of stream.
func (r *Reader) Next(t int) workload.Access {
	s := r.streams[t]
	a := s[r.pos[t]]
	r.pos[t]++
	if r.pos[t] == len(s) {
		r.pos[t] = 0
	}
	r.refs[t]++
	return a
}

// Spec returns the recorded workload parameters.
func (r *Reader) Spec() workload.Spec { return r.header.Spec }

// FootprintBlocks returns the recorded footprint.
func (r *Reader) FootprintBlocks() uint64 { return r.header.Footprint }

// TotalRefs returns replayed references so far.
func (r *Reader) TotalRefs() uint64 {
	var n uint64
	for _, v := range r.refs {
		n += v
	}
	return n
}

// Loops reports how many times thread t's stream has wrapped.
func (r *Reader) Loops(t int) uint64 {
	return r.refs[t] / uint64(len(r.streams[t]))
}

var _ workload.Source = (*Reader)(nil)
