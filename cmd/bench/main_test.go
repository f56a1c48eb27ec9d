package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestAppendReportKeepsOldRecordsVerbatim appends to a history whose
// first record carries a field Report does not have — the situation of
// every record written before a field was dropped — and requires the
// old records back byte for byte, with the new one after them.
func TestAppendReportKeepsOldRecordsVerbatim(t *testing.T) {
	const old = `[
  {
    "time": "2026-01-01T00:00:00Z",
    "go_version": "go1.22",
    "gomaxprocs": 1,
    "refs_per_sec": 4100000.5,
    "allocs_per_ref": 0.000117,
    "retired_sweep": [
      {
        "lanes": 2,
        "speedup": 0.93
      }
    ],
    "peak_rss_bytes": 1
  },
  {
    "go_version": "go1.24",
    "gomaxprocs": 2,
    "refs_per_sec": 1e6,
    "allocs_per_ref": 7.2e-05,
    "peak_rss_bytes": 2
  }
]
`
	path := filepath.Join(t.TempDir(), "hist.json")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := appendReport(path, Report{Time: "2026-09-29T00:00:00Z", GoVersion: "go1.24", RefsPerSec: 5e6})
	if err != nil || n != 3 {
		t.Fatalf("appendReport = %d, %v; want 3 records", n, err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Everything up to the old array's closing bracket must survive
	// untouched: field order, number spelling (1e6, 7.2e-05) and the
	// field Report never heard of.
	keep := []byte(old[:len(old)-len("\n]\n")])
	if !bytes.HasPrefix(got, keep) {
		t.Fatalf("earlier records rewritten:\n%s", got)
	}
	hist, err := readReports(path)
	if err != nil {
		t.Fatalf("appended history does not load: %v", err)
	}
	if len(hist) != 3 || hist[0].RefsPerSec != 4100000.5 || hist[1].GOMAXPROCS != 2 ||
		hist[2].RefsPerSec != 5e6 || hist[2].Time != "2026-09-29T00:00:00Z" {
		t.Fatalf("history decoded wrong: %+v", hist)
	}

	// A second append keeps the first append's record verbatim too.
	if _, err := appendReport(path, Report{GoVersion: "go1.24"}); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(again, got[:len(got)-len("\n]\n")]) {
		t.Fatalf("second append rewrote the first:\n%s", again)
	}
}

// TestAppendReportCreatesAndAbsorbsLegacy covers the two other starting
// states: no file yet, and the legacy single-object file.
func TestAppendReportCreatesAndAbsorbsLegacy(t *testing.T) {
	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.json")
	if n, err := appendReport(fresh, Report{RefsPerSec: 1}); err != nil || n != 1 {
		t.Fatalf("fresh file: %d, %v", n, err)
	}
	if hist, err := readReports(fresh); err != nil || len(hist) != 1 || hist[0].RefsPerSec != 1 {
		t.Fatalf("fresh history: %+v, %v", hist, err)
	}

	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte("{\"go_version\":\"go1.21\",\"refs_per_sec\":2310000}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := appendReport(legacy, Report{RefsPerSec: 2}); err != nil || n != 2 {
		t.Fatalf("legacy file: %d, %v", n, err)
	}
	hist, err := readReports(legacy)
	if err != nil || len(hist) != 2 || hist[0].RefsPerSec != 2310000 || hist[1].RefsPerSec != 2 {
		t.Fatalf("legacy history: %+v, %v", hist, err)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("[{\"refs_per_sec\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := appendReport(bad, Report{}); err == nil {
		t.Error("truncated history accepted")
	}
	if buf, _ := os.ReadFile(bad); string(buf) != "[{\"refs_per_sec\":" {
		t.Errorf("truncated history overwritten: %q", buf)
	}
}

// TestCommittedHistory holds the checked-in BENCH_consim.json to both
// uses: it still loads as a -baseline (its records predate several
// Report fields and carry one Report has since dropped), and appending
// to a copy leaves every committed byte in place.
func TestCommittedHistory(t *testing.T) {
	const committed = "../../BENCH_consim.json"
	hist, err := readReports(committed)
	if err != nil {
		t.Fatalf("committed history does not load as a baseline: %v", err)
	}
	if len(hist) == 0 || hist[len(hist)-1].RefsPerSec <= 0 {
		t.Fatalf("committed history has no usable newest record: %d records", len(hist))
	}
	orig, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(orig, []byte(`"shard_scaling"`)) {
		t.Fatal("committed history lost the shard_scaling record this test exists to protect")
	}
	path := filepath.Join(t.TempDir(), "copy.json")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := appendReport(path, Report{GoVersion: "test"}); err != nil || n != len(hist)+1 {
		t.Fatalf("appendReport = %d, %v; want %d", n, err, len(hist)+1)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if keep := orig[:len(orig)-len("\n]\n")]; !bytes.HasPrefix(got, keep) {
		t.Fatal("appending rewrote committed records")
	}
}
