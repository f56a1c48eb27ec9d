package main

import (
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"consim/internal/obs"
)

func TestCLIRegisterWiresFlags(t *testing.T) {
	var c sinkFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.register(fs)
	err := fs.Parse([]string{
		"-progress",
		"-tracefile", "t.json",
		"-manifest", "m.jsonl",
		"-timeseries",
		"-cpuprofile", "cpu.pb",
		"-memprofile", "mem.pb",
		"-debug-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Progress || c.TraceFile != "t.json" || c.Manifest != "m.jsonl" ||
		!c.TimeSeries || c.CPUProfile != "cpu.pb" ||
		c.MemProfile != "mem.pb" || c.DebugAddr != "127.0.0.1:0" {
		t.Fatalf("parsed sinkFlags = %+v", c)
	}
	if !c.enabled() {
		t.Fatal("full flag set not enabled")
	}
	if (&sinkFlags{CPUProfile: "only.pb"}).enabled() {
		t.Fatal("profile-only sinkFlags should not need an Observer")
	}
	if (&sinkFlags{DebugAddr: "127.0.0.1:0"}).enabled() {
		t.Fatal("-debug-addr alone serves pprof and should not need an Observer")
	}
}

// TestCLIStartTimeSeries checks -timeseries turns on series recording
// in the Observer's run hooks, that a record carrying a series reads
// back with it, and that -timeseries without -manifest is refused
// before any sink starts.
func TestCLIStartTimeSeries(t *testing.T) {
	dir := t.TempDir()
	c := sinkFlags{Manifest: filepath.Join(dir, "m.jsonl"), TimeSeries: true}
	o, stop, err := c.start(&strings.Builder{})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if o == nil || !o.Series || o.Man == nil || !o.Hooks().Series {
		t.Fatalf("observer sinks missing: %+v", o)
	}
	s := obs.NewSeries(1, 1)
	s.Begin(obs.TSPhaseMeasure, 10, 0.1, 0, -1)
	s.VM(0, 100, 0.5, 1000)
	if err := o.Man.Write(obs.Manifest{Label: "wired", Series: s}); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	ms, err := obs.ReadManifests(c.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Series == nil || ms[0].Series.Rows() != 1 {
		t.Fatalf("manifest series = %+v", ms)
	}

	alone := sinkFlags{TimeSeries: true, CPUProfile: filepath.Join(dir, "cpu.pb")}
	_, _, err = alone.start(&strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "-timeseries requires -manifest") {
		t.Fatalf("-timeseries without -manifest: error %v", err)
	}
	if _, err := os.Stat(alone.CPUProfile); !os.IsNotExist(err) {
		t.Fatalf("refused command line started the CPU profile: %v", err)
	}
}

// TestCLIStartDebugAddr checks start brings the pprof endpoint up on an
// ephemeral port without building an Observer (a pprof-only run
// publishes no metrics), reports the bound address, and tears it down in
// stop — twice in one process.
func TestCLIStartDebugAddr(t *testing.T) {
	for round := 1; round <= 2; round++ {
		c := sinkFlags{DebugAddr: "127.0.0.1:0"}
		var notes strings.Builder
		o, stop, err := c.start(&notes)
		if err != nil {
			t.Fatalf("round %d: start: %v", round, err)
		}
		if o != nil {
			t.Fatalf("round %d: -debug-addr alone built an Observer", round)
		}
		note := notes.String()
		i := strings.Index(note, "http://")
		j := strings.Index(note, "/debug/pprof/")
		if i < 0 || j < i {
			t.Fatalf("round %d: bound address not reported: %q", round, note)
		}
		url := note[i : j+len("/debug/pprof/")]
		if strings.Contains(url, ":0/") {
			t.Fatalf("round %d: reported address %q not resolved", round, url)
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("round %d: GET %s: %v", round, url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: GET %s: %s", round, url, resp.Status)
		}
		if err := stop(); err != nil {
			t.Fatalf("round %d: stop: %v", round, err)
		}
		if _, err := http.Get(url); err == nil {
			t.Fatalf("round %d: pprof endpoint still serving after stop", round)
		}
	}
}

// TestCLIStartFailureCleansUp checks a sink that cannot open unwinds
// the ones before it: the CPU profile started first is stopped, so a
// second one can start.
func TestCLIStartFailureCleansUp(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c := sinkFlags{
		CPUProfile: filepath.Join(dir, "cpu.pb"),
		Manifest:   filepath.Join(blocked, "m.jsonl"), // parent is a file: MkdirAll fails
	}
	if _, _, err := c.start(&strings.Builder{}); err == nil {
		t.Fatal("start with an unopenable manifest did not error")
	}
	again := sinkFlags{CPUProfile: filepath.Join(dir, "again.pb")}
	_, stop, err := again.start(&strings.Builder{})
	if err != nil {
		t.Fatalf("CPU profile left running by the failed start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestDebugServerLifecycle starts the pprof server on an ephemeral port,
// checks /debug/pprof/ answers, and verifies shutdown frees the port and
// its goroutine (-debug-addr must not leak the listener when the run
// ends). A second start in the same process must work as well.
func TestDebugServerLifecycle(t *testing.T) {
	for round := 1; round <= 2; round++ {
		addr, shutdown, err := startDebugServer("127.0.0.1:0")
		if err != nil {
			t.Fatalf("round %d: startDebugServer: %v", round, err)
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

// TestRunDebugAddr drives run through dispatch with -debug-addr on an
// ephemeral port: the command reports the endpoint and exits cleanly,
// so the flag is still wired into the shared run-flag set.
func TestRunDebugAddr(t *testing.T) {
	var notes strings.Builder
	stderr = &notes
	defer func() { stderr = io.Discard }()
	stdoutOf(t, "run", "-debug-addr", "127.0.0.1:0", "-workloads", "TPC-H", "-scale", "32", "-warm", "1000", "-meas", "4000")
	if !strings.Contains(notes.String(), "[obs] pprof on http://") {
		t.Fatalf("run -debug-addr did not report its endpoint: %q", notes.String())
	}
}
