package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"consim/internal/obs"
)

// stdoutOf runs a command line with stdout captured.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = dispatch(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("consim %s: %v", strings.Join(args, " "), err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestObsReportMemorySystem runs a small simulation with -manifest and
// reports it: the record carries the memory-system ledger and obs report
// prints it.
func TestObsReportMemorySystem(t *testing.T) {
	man := filepath.Join(t.TempDir(), "m.jsonl")
	stdoutOf(t, "run", "-workloads", "TPC-H", "-scale", "64", "-warm", "1000", "-meas", "4000", "-manifest", man)
	out := stdoutOf(t, "obs", "report", man)
	for _, want := range []string{"memory system (measurement window):", "L0   accesses=", "LLC  accesses=", "dircache hits=", "memctrl   reads="} {
		if !strings.Contains(out, want) {
			t.Errorf("obs report missing %q in:\n%s", want, out)
		}
	}
}

// TestObsReportAllSharedSidecar reports two records whose time series
// share one sidecar: the sidecar is read once and each record still
// prints its own rows' summary.
func TestObsReportAllSharedSidecar(t *testing.T) {
	dir := t.TempDir()
	ts, err := obs.OpenTimeSeries(filepath.Join(dir, "ts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, label := range []string{"first", "second"} {
		r := ts.NewRecorder(label, 1, 0, 0)
		r.Begin(obs.TSPhaseMeasure, 10, 0.1, 0, -1, 0)
		r.VM(0, 100, 0.5, 1000)
		r.Commit()
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
		rec, err := json.Marshal(obs.Manifest{Label: label, WallSeconds: 0.3,
			Phase:         &obs.PhaseProfile{WarmupSeconds: 0.1, MeasureSeconds: 0.2},
			TimeseriesRun: r.Run(), TimeseriesRows: r.Rows(), Timeseries: ts.Path()})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(rec))
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	man := filepath.Join(dir, "m.jsonl")
	if err := os.WriteFile(man, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := stdoutOf(t, "obs", "report", "-all", man)
	for _, want := range []string{"run first", "time series (run 1, 1 rows)", "run second", "time series (run 2, 1 rows)"} {
		if !strings.Contains(out, want) {
			t.Errorf("obs report -all missing %q in:\n%s", want, out)
		}
	}
}
