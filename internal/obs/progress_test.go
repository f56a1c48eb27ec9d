package obs

import (
	"strings"
	"testing"
	"time"
)

// TestProgressLine binds a progress display to an observer's registry,
// publishes one run's counters through its hooks in two deltas, and
// checks the line Stop draws: the run counts, the references and the
// mean private-miss latency over both deltas, ended by a newline.
func TestProgressLine(t *testing.T) {
	var b strings.Builder
	p := NewProgress(&b)
	h := NewObserver(nil, nil, p).Hooks()
	p.Start(time.Hour) // no tick fires: Stop draws the only line
	lane := h.RunStart("run")
	// 400 misses of 150 cycles, then 100 of 250: mean 170.
	h.AddCore(8_000, 400, 400*150, 40, 0, 0, 0, 0)
	h.AddCore(4_000, 100, 100*250, 10, 0, 0, 0, 0)
	h.RunEnd(lane)
	p.Stop()

	out := b.String()
	for _, want := range []string{"runs 1/1 done, 0 running", "| 12.0k refs (", "/s)", "| missLat mean 170 |", "left"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress line missing %q: %q", want, out)
		}
	}
	if !strings.HasPrefix(out, "\r") || !strings.HasSuffix(out, "\n") || strings.Count(out, "\n") != 1 {
		t.Errorf("progress line not one carriage-returned line ended by a newline: %q", out)
	}
}
