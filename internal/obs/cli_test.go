package obs

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCLIRegisterWiresFlags(t *testing.T) {
	var c CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Register(fs)
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
		t.Fatalf("parsed CLI = %+v", c)
	}
	if !c.enabled() {
		t.Fatal("full flag set not enabled")
	}
	if (&CLI{CPUProfile: "only.pb"}).enabled() {
		t.Fatal("profile-only CLI should not need an Observer")
	}
	if (&CLI{DebugAddr: "127.0.0.1:0"}).enabled() {
		t.Fatal("-debug-addr alone serves pprof and should not need an Observer")
	}
}

// TestCLIStartTimeSeries checks -timeseries turns on series recording
// in the Observer's run hooks, that a record carrying a series reads
// back with it, and that -timeseries without -manifest is refused
// before any sink starts.
func TestCLIStartTimeSeries(t *testing.T) {
	dir := t.TempDir()
	c := CLI{Manifest: filepath.Join(dir, "m.jsonl"), TimeSeries: true}
	o, stop, err := c.Start(&strings.Builder{})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if o == nil || !o.Series || o.Man == nil || !o.Hooks().Series {
		t.Fatalf("observer sinks missing: %+v", o)
	}
	s := NewSeries(1, 1)
	s.Begin(TSPhaseMeasure, 10, 0.1, 0, -1)
	s.VM(0, 100, 0.5, 1000)
	if err := o.Man.Write(Manifest{Label: "wired", Series: s}); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	ms, err := ReadManifests(c.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Series == nil || ms[0].Series.Rows() != 1 {
		t.Fatalf("manifest series = %+v", ms)
	}

	alone := CLI{TimeSeries: true, CPUProfile: filepath.Join(dir, "cpu.pb")}
	_, _, err = alone.Start(&strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "-timeseries requires -manifest") {
		t.Fatalf("-timeseries without -manifest: error %v", err)
	}
	if _, err := os.Stat(alone.CPUProfile); !os.IsNotExist(err) {
		t.Fatalf("refused command line started the CPU profile: %v", err)
	}
}

// TestCLIStartDebugAddr checks Start brings the pprof endpoint up on an
// ephemeral port without building an Observer (a pprof-only run
// publishes no metrics), reports the bound address, and tears it down in
// stop — twice in one process.
func TestCLIStartDebugAddr(t *testing.T) {
	for round := 1; round <= 2; round++ {
		c := CLI{DebugAddr: "127.0.0.1:0"}
		var notes strings.Builder
		o, stop, err := c.Start(&notes)
		if err != nil {
			t.Fatalf("round %d: Start: %v", round, err)
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
	c := CLI{
		CPUProfile: filepath.Join(dir, "cpu.pb"),
		Manifest:   filepath.Join(blocked, "m.jsonl"), // parent is a file: MkdirAll fails
	}
	if _, _, err := c.Start(&strings.Builder{}); err == nil {
		t.Fatal("Start with an unopenable manifest did not error")
	}
	again := CLI{CPUProfile: filepath.Join(dir, "again.pb")}
	_, stop, err := again.Start(&strings.Builder{})
	if err != nil {
		t.Fatalf("CPU profile left running by the failed Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
