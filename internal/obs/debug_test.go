package obs

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

// TestDebugServerLifecycle starts the pprof server on an ephemeral port,
// checks /debug/pprof/ answers, and verifies shutdown frees the port and
// its goroutine (-debug-addr must not leak the listener when the run
// ends). A second start in the same process must work as well.
func TestDebugServerLifecycle(t *testing.T) {
	for round := 1; round <= 2; round++ {
		addr, shutdown, err := StartDebugServer("127.0.0.1:0")
		if err != nil {
			t.Fatalf("round %d: StartDebugServer: %v", round, err)
		}
		if strings.HasSuffix(addr, ":0") {
			t.Fatalf("round %d: bound address %q not resolved", round, addr)
		}
		resp, err := http.Get("http://" + addr + "/debug/pprof/")
		if err != nil {
			t.Fatalf("round %d: GET /debug/pprof/: %v", round, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
			t.Fatalf("round %d: /debug/pprof/ = %s, body %.80q", round, resp.Status, body)
		}
		if resp, err := http.Get("http://" + addr + "/debug/vars"); err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("round %d: /debug/vars = %s, want 404 (the registry dump is gone)", round, resp.Status)
			}
		}
		if err := shutdown(); err != nil {
			t.Fatalf("round %d: shutdown: %v", round, err)
		}
		if _, err := net.Dial("tcp", addr); err == nil {
			t.Fatalf("round %d: listener still accepting after shutdown", round)
		}
	}
}
