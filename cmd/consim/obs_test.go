package main

import (
	"fmt"
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

// TestObsReportAllInlineSeries runs a two-size group sweep with
// -timeseries and reports every record: each carries its own series, and
// obs report prints each one's summary from the record alone.
func TestObsReportAllInlineSeries(t *testing.T) {
	man := filepath.Join(t.TempDir(), "m.jsonl")
	stdoutOf(t, "run", "-workloads", "TPC-H", "-group", "1,4", "-scale", "64", "-warm", "1000", "-meas", "4000",
		"-timeseries", "-manifest", man)
	ms, err := obs.ReadManifests(man)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("manifest holds %d records, want 2", len(ms))
	}
	for _, m := range ms {
		if m.Series == nil || m.Series.Rows() == 0 {
			t.Fatalf("record %q carries no series", m.Label)
		}
	}
	out := stdoutOf(t, "obs", "report", "-all", man)
	if n := strings.Count(out, "time series ("); n != 2 {
		t.Errorf("obs report -all printed %d time-series blocks, want 2:\n%s", n, out)
	}
	for _, m := range ms {
		if want := fmt.Sprintf("time series (%d rows)", m.Series.Rows()); !strings.Contains(out, want) {
			t.Errorf("obs report -all missing %q in:\n%s", want, out)
		}
	}
}
