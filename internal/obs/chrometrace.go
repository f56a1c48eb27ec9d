package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Tracer records phase-scoped spans in the Chrome trace-event format
// (the JSON that chrome://tracing and ui.perfetto.dev load). Spans are
// emitted as balanced B/E duration events on numbered lanes; the
// harness runner maps lanes to worker-pool slots, so a sweep's trace
// shows one swimlane per concurrent worker with the job, run and phase
// spans nested inside each other.
//
// Frequency is phase-level (a handful of events per simulation), so a
// single mutex serializes recording; the simulator's per-reference path
// never touches the tracer.
type Tracer struct {
	mu       sync.Mutex
	start    time.Time
	events   []chromeEvent
	free     []int      // released lanes, reused LIFO
	next     int        // next never-used lane number
	stacks   [][]string // per-lane open-span names, for matching E events
	laneUsed []bool     // lanes that ever carried an event (metadata emission)
}

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"` // microseconds since trace start
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"` // sparse; phase spans carry none
}

// tracePID is the single logical process all lanes belong to.
const tracePID = 1

// NewTracer starts an empty trace; timestamps are relative to this
// call.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

func (t *Tracer) now() int64 { return time.Since(t.start).Microseconds() }

// AcquireLane reserves a lane (trace tid). Lanes are recycled LIFO on
// release, so a pool of N concurrent workers occupies exactly lanes
// 0..N-1 — one Perfetto track per worker slot.
func (t *Tracer) AcquireLane() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.free); n > 0 {
		lane := t.free[n-1]
		t.free = t.free[:n-1]
		return lane
	}
	lane := t.next
	t.next++
	return lane
}

// ReleaseLane returns a lane to the pool.
func (t *Tracer) ReleaseLane(lane int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.free = append(t.free, lane)
}

func (t *Tracer) touch(lane int) {
	for lane >= len(t.stacks) {
		t.stacks = append(t.stacks, nil)
		t.laneUsed = append(t.laneUsed, false)
	}
	t.laneUsed[lane] = true
}

// Begin opens a span named name on lane.
func (t *Tracer) Begin(lane int, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touch(lane)
	t.stacks[lane] = append(t.stacks[lane], name)
	t.events = append(t.events, chromeEvent{Name: name, Ph: "B", TS: t.now(), PID: tracePID, TID: lane})
}

// End closes the innermost open span on lane. Ending with no open span
// is ignored (robustness over strictness: a partial trace still loads).
func (t *Tracer) End(lane int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touch(lane)
	st := t.stacks[lane]
	if len(st) == 0 {
		return
	}
	name := st[len(st)-1]
	t.stacks[lane] = st[:len(st)-1]
	t.events = append(t.events, chromeEvent{Name: name, Ph: "E", TS: t.now(), PID: tracePID, TID: lane})
}

// Span opens a span and returns its closer, for defer-style use.
func (t *Tracer) Span(lane int, name string) func() {
	t.Begin(lane, name)
	return func() { t.End(lane) }
}

// Events returns how many events have been recorded.
func (t *Tracer) Events() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// traceFile is the on-disk JSON object shape.
type traceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Write emits the trace as a Chrome trace-format JSON object:
// process/thread naming metadata first, then every recorded event. Open
// spans are closed at the current timestamp so the file always balances
// and loads cleanly even if a sweep was interrupted.
func (t *Tracer) Write(w io.Writer) error {
	t.mu.Lock()
	var events []chromeEvent
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", PID: tracePID, TID: 0,
		Args: map[string]any{"name": "consim " + ToolVersion},
	})
	for lane, used := range t.laneUsed {
		if !used {
			continue
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: lane,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", lane)},
		})
	}
	events = append(events, t.events...)
	now := t.now()
	for lane, st := range t.stacks {
		for i := len(st) - 1; i >= 0; i-- {
			events = append(events, chromeEvent{Name: st[i], Ph: "E", TS: now, PID: tracePID, TID: lane})
		}
	}
	t.mu.Unlock()

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteFile writes the trace to path, creating parent directories.
func (t *Tracer) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
