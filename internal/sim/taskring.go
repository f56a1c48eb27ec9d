package sim

import "sync/atomic"

// TaskRing is a bounded single-producer single-consumer queue of small
// task handles, the spine→worker channel of the parallel engine. The hot
// path is two atomic loads and one atomic store per side; when the ring
// runs dry the consumer parks on a channel instead of spinning, so on a
// machine with fewer CPUs than lanes an idle worker costs nothing — the
// scheduler runs whoever has work.
//
// Capacity is fixed at construction and must exceed the maximum number
// of in-flight tasks the producer posts (the engine bounds this by
// construction: one task per worker per handshake). Push never blocks
// and panics on overflow, which would be an engine bug rather than
// backpressure.
type TaskRing struct {
	buf  []uint32
	mask uint64

	_    [64]byte // keep producer and consumer cursors off one line
	tail atomic.Uint64
	_    [64]byte
	head atomic.Uint64
	_    [64]byte

	// parked is set by the consumer just before it re-checks emptiness
	// and blocks on wake; the producer only pays the channel send when it
	// observes the flag.
	parked atomic.Bool
	wake   chan struct{}
	closed atomic.Bool
}

// NewTaskRing returns a ring holding up to cap tasks (rounded up to a
// power of two, minimum 2).
func NewTaskRing(cap int) *TaskRing {
	n := 2
	for n < cap {
		n <<= 1
	}
	return &TaskRing{
		buf:  make([]uint32, n),
		mask: uint64(n - 1),
		wake: make(chan struct{}, 1),
	}
}

// Push enqueues v. Producer-side only; panics if the ring is full.
func (r *TaskRing) Push(v uint32) {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		panic("sim: TaskRing overflow")
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1) // release: publishes buf[t] to the consumer
	if r.parked.Load() {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// Close wakes the consumer permanently; Pop returns false once the ring
// is drained. Producer-side only.
func (r *TaskRing) Close() {
	r.closed.Store(true)
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Pop dequeues the next task, blocking (parked, not spinning) until one
// is available or Close has been called and the ring is empty, in which
// case it returns false. Consumer-side only.
func (r *TaskRing) Pop() (uint32, bool) {
	h := r.head.Load()
	for {
		if r.tail.Load() != h {
			v := r.buf[h&r.mask]
			r.head.Store(h + 1)
			return v, true
		}
		if r.closed.Load() {
			// Re-check after observing closed: Close happens after the
			// final Push, so an empty ring now is empty forever.
			if r.tail.Load() == h {
				return 0, false
			}
			continue
		}
		// Park: announce, re-check (the producer may have pushed between
		// our check and the announcement), then block.
		r.parked.Store(true)
		if r.tail.Load() != h || r.closed.Load() {
			r.parked.Store(false)
			continue
		}
		<-r.wake
		r.parked.Store(false)
	}
}
