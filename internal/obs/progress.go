package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Progress renders a live single-line status for a long sweep on
// stderr: runs started/done/in-flight, simulated-reference throughput,
// mean private-miss latency, elapsed time and an ETA over the runs
// requested so far. Because the runner memoizes and figures enqueue
// work dynamically, the total is the number of runs *started*, so the
// ETA firms up as the sweep's shape becomes known.
type Progress struct {
	w io.Writer

	reg *Registry
	sim *SimMetrics

	started atomic.Int64
	done    atomic.Int64

	mu       sync.Mutex
	start    time.Time
	stop     chan struct{}
	stopped  chan struct{}
	lastLen  int
	lastRefs uint64
	lastAt   time.Time
}

// NewProgress builds a progress display writing to w (conventionally
// os.Stderr). Call Start to begin rendering and Stop to finish.
func NewProgress(w io.Writer) *Progress {
	return &Progress{w: w, start: time.Now()}
}

// bind attaches the metric source (done by NewObserver, which owns the
// registry).
func (p *Progress) bind(reg *Registry, sim *SimMetrics) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reg = reg
	p.sim = sim
}

// JobStart notes a run entering execution.
func (p *Progress) JobStart() { p.started.Add(1) }

// JobDone notes a run finishing.
func (p *Progress) JobDone() { p.done.Add(1) }

// Start launches the render loop at the given interval (0 = 500ms).
func (p *Progress) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	p.mu.Lock()
	if p.stop != nil {
		p.mu.Unlock()
		return
	}
	p.stop = make(chan struct{})
	p.stopped = make(chan struct{})
	p.start = time.Now()
	p.lastAt = p.start
	stop, stopped := p.stop, p.stopped
	p.mu.Unlock()

	go func() {
		defer close(stopped)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				p.render()
			}
		}
	}()
}

// Stop halts the render loop, draws a final line and terminates it with
// a newline so subsequent output starts clean.
func (p *Progress) Stop() {
	p.mu.Lock()
	stop, stopped := p.stop, p.stopped
	p.stop = nil
	p.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-stopped
	p.render()
	fmt.Fprintln(p.w)
}

// render draws one status line, carriage-returning over the previous.
func (p *Progress) render() {
	p.mu.Lock()
	defer p.mu.Unlock()

	now := time.Now()
	elapsed := now.Sub(p.start)
	started, done := p.started.Load(), p.done.Load()
	inflight := started - done

	line := fmt.Sprintf("[consim] runs %d/%d done, %d running", done, started, inflight)

	if p.reg != nil {
		refs := p.reg.Value(p.sim.Refs)
		rate := 0.0
		if dt := now.Sub(p.lastAt).Seconds(); dt > 0 {
			rate = float64(refs-p.lastRefs) / dt
		}
		p.lastRefs, p.lastAt = refs, now
		line += fmt.Sprintf(" | %s refs (%s/s)", humanCount(refs), humanCount(uint64(rate)))
		if misses := p.reg.Value(p.sim.PrivMisses); misses > 0 {
			line += fmt.Sprintf(" | missLat mean %.0f", float64(p.reg.Value(p.sim.PrivMissCycles))/float64(misses))
		}
	}

	line += fmt.Sprintf(" | %s", elapsed.Round(time.Second))
	if done > 0 && inflight+done > 0 {
		perRun := elapsed / time.Duration(done)
		eta := perRun * time.Duration(started-done)
		line += fmt.Sprintf(", ~%s left", eta.Round(time.Second))
	}

	pad := ""
	if n := p.lastLen - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	p.lastLen = len(line)
	fmt.Fprintf(p.w, "\r%s%s", line, pad)
}

// humanCount renders a count with k/M/G suffixes for the status line.
func humanCount(n uint64) string {
	switch {
	case n >= 10_000_000_000:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}
