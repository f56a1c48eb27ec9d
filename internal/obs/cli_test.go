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
		"-timeseries", "ts.jsonl",
		"-cpuprofile", "cpu.pb",
		"-memprofile", "mem.pb",
		"-debug-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Progress || c.TraceFile != "t.json" || c.Manifest != "m.jsonl" ||
		c.TimeSeries != "ts.jsonl" || c.CPUProfile != "cpu.pb" ||
		c.MemProfile != "mem.pb" || c.DebugAddr != "127.0.0.1:0" {
		t.Fatalf("parsed CLI = %+v", c)
	}
	if !c.enabled() {
		t.Fatal("full flag set not enabled")
	}
	if (&CLI{CPUProfile: "only.pb"}).enabled() {
		t.Fatal("profile-only CLI should not need an Observer")
	}
	if !(&CLI{TimeSeries: "ts.jsonl"}).enabled() {
		t.Fatal("-timeseries alone must enable the Observer")
	}
	if (&CLI{DebugAddr: "127.0.0.1:0"}).enabled() {
		t.Fatal("-debug-addr alone serves pprof and should not need an Observer")
	}
}

// TestCLIStartTimeSeries checks Start opens the sidecar, hands the
// writer to the Observer, threads its path into the manifest writer,
// and that stop flushes both files.
func TestCLIStartTimeSeries(t *testing.T) {
	dir := t.TempDir()
	c := CLI{
		Manifest:   filepath.Join(dir, "m.jsonl"),
		TimeSeries: filepath.Join(dir, "ts.jsonl"),
	}
	var notes strings.Builder
	o, stop, err := c.Start(&notes)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if o == nil || o.TS == nil || o.Man == nil {
		t.Fatalf("observer sinks missing: %+v", o)
	}

	r := o.TS.NewRecorder("wired", 1, 0, 0)
	r.Begin(TSPhaseMeasure, 10, 0.1, 0, -1, 0)
	r.VM(0, 100, 0.5, 1000)
	r.Commit()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := o.Man.Write(Manifest{Label: "wired", TimeseriesRun: r.Run(), TimeseriesRows: r.Rows()}); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if !strings.Contains(notes.String(), "time series written to") {
		t.Fatalf("missing status note in %q", notes.String())
	}

	rows, err := ReadTimeSeries(c.TimeSeries)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Label != "wired" {
		t.Fatalf("sidecar rows = %+v", rows)
	}
	ms, err := ReadManifests(c.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Timeseries != c.TimeSeries || ms[0].TimeseriesRun != rows[0].Run {
		t.Fatalf("manifest sidecar reference = %+v", ms)
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
// the ones before it (no leaked manifest handle or half-started state).
func TestCLIStartFailureCleansUp(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c := CLI{
		Manifest:   filepath.Join(dir, "m.jsonl"),
		TimeSeries: filepath.Join(blocked, "ts.jsonl"), // parent is a file: MkdirAll fails
	}
	if _, _, err := c.Start(&strings.Builder{}); err == nil {
		t.Fatal("Start with unopenable sidecar did not error")
	}
}
