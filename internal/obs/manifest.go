package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// ManifestVersion is the manifest schema version stamped into new
// records. Version 2 added host parallelism (gomaxprocs, num_cpu — a
// pdes scaling entry is meaningless without them), the phase
// profile, and a reference to a separate time-series file (timeseries,
// timeseries_run, timeseries_rows). Version 3 stores the time series
// inline (series) and drops that reference; readers ignore it in older
// records. Records from before version 2 decode with Version 0 and
// those fields zero; readers must tolerate every version.
const ManifestVersion = 3

// Manifest is one run's provenance record: everything needed to say
// *which* simulation produced a result and what it cost. The harness
// appends one JSON line per executed simulation job to a JSONL file
// under results/, so every number in a report can be traced back to its
// configuration, seed, scale and tool version.
type Manifest struct {
	Version   int    `json:"version,omitempty"`
	Time      string `json:"time"`
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	GitRev    string `json:"git_rev,omitempty"`
	// Host parallelism at run time: wall-time entries can only be
	// compared across hosts with these recorded.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`

	Label     string   `json:"label"`
	Workloads []string `json:"workloads"`
	GroupSize int      `json:"group_size"`
	Policy    string   `json:"policy"`
	Scale     int      `json:"scale"`
	Seed      uint64   `json:"seed"`

	WarmupRefs  uint64 `json:"warmup_refs"`
	MeasureRefs uint64 `json:"measure_refs"`

	// Measured outcome and cost.
	Refs        uint64  `json:"refs"`   // references simulated in the window
	Cycles      uint64  `json:"cycles"` // measurement-window length
	WallSeconds float64 `json:"wall_seconds"`
	Parallel    int     `json:"parallel,omitempty"`

	// Interval-sampling provenance: window geometry, how much of the
	// stream was measured in detail vs fast-forwarded, the worst per-VM
	// relative 95% CI half-width at stop, and why the run stopped
	// ("converged" or "budget"). Absent for detailed runs — a sampled
	// number can always be told from an exact one by these fields.
	SampleWindows      int     `json:"sample_windows,omitempty"`
	SampleWindowRefs   uint64  `json:"sample_window_refs,omitempty"`
	SampleDetailedRefs uint64  `json:"sample_detailed_refs,omitempty"`
	SampleSkippedRefs  uint64  `json:"sample_skipped_refs,omitempty"`
	SampleRelCI        float64 `json:"sample_rel_ci,omitempty"`
	SampleStopReason   string  `json:"sample_stop_reason,omitempty"`
	// The sampled run's warm-up, in WarmupRefs' units: the detailed
	// pilot window and the functional rest (neither is part of the
	// detailed/skipped counts above). Absent before PR 14, when the
	// whole warm-up was detailed.
	SampleWarmupDetailedRefs   uint64 `json:"sample_warmup_detailed_refs,omitempty"`
	SampleWarmupFunctionalRefs uint64 `json:"sample_warmup_functional_refs,omitempty"`

	// Phase is the run's wall-time decomposition by engine phase (nil
	// when telemetry was off or the record predates phase accounting).
	Phase *PhaseProfile `json:"phase,omitempty"`
	// Layers is the run's memory-system ledger (nil in records written
	// before it was recorded).
	Layers *Layers `json:"layers,omitempty"`
	// Series is the run's per-window time series (nil when -timeseries
	// was off).
	Series *Series `json:"series,omitempty"`
}

// Layers is a run's memory-system ledger: accesses, misses and
// evictions per cache level, directory entries, directory-cache hits and
// misses, and memory-controller reads, writebacks and queueing cycles.
//
// The cache and controller counters are zeroed when measurement starts.
// On sampled runs the cache counters include the fast-forwarded
// references, which go through the same walk; the controllers count
// detailed references only. The directory cache is never zeroed, so its
// counts cover the whole run, warm-up included. DirEntries is the
// directory's occupancy when the run ends.
type Layers struct {
	// Cache holds 0=L0, 1=L1, 2=LLC banks, each summed over its arrays.
	Cache          [3]CacheCounts `json:"cache"`
	DirEntries     uint64         `json:"dir_entries"`
	DirCacheHits   uint64         `json:"dircache_hits"`
	DirCacheMisses uint64         `json:"dircache_misses"`
	MemReads       uint64         `json:"mem_reads"`
	MemWritebacks  uint64         `json:"mem_writebacks"`
	MemWaitCycles  uint64         `json:"mem_wait_cycles"`
}

// CacheCounts is one cache level's share of Layers.
type CacheCounts struct {
	Accesses  uint64 `json:"accesses"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// ManifestWriter appends manifest lines to a JSONL file. Safe for
// concurrent use (the parallel runner stamps jobs as they finish).
type ManifestWriter struct {
	mu sync.Mutex
	f  *os.File
}

// OpenManifest opens (appending) or creates the JSONL file at path,
// creating parent directories as needed.
func OpenManifest(path string) (*ManifestWriter, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &ManifestWriter{f: f}, nil
}

// Write stamps the environment fields (time, host parallelism, tool, Go
// version, git revision) and appends m as one JSON line.
func (w *ManifestWriter) Write(m Manifest) error {
	if m.Version == 0 {
		m.Version = ManifestVersion
	}
	if m.Time == "" {
		m.Time = time.Now().UTC().Format(time.RFC3339)
	}
	if m.GOMAXPROCS == 0 {
		m.GOMAXPROCS = runtime.GOMAXPROCS(0)
	}
	if m.NumCPU == 0 {
		m.NumCPU = runtime.NumCPU()
	}
	if m.Tool == "" {
		m.Tool = "consim " + ToolVersion
	}
	if m.GoVersion == "" {
		m.GoVersion = runtime.Version()
	}
	if m.GitRev == "" {
		m.GitRev = buildRev()
	}
	buf, err := json.Marshal(m)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err = w.f.Write(buf)
	return err
}

// Path returns the underlying file's name.
func (w *ManifestWriter) Path() string { return w.f.Name() }

// Close flushes and closes the file.
func (w *ManifestWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// ReadManifests parses a JSONL file back into records (reporting and
// round-trip tests). Anything that is not a stream of JSON objects — a
// truncated line, a JSON array such as the retired bench history — is
// an error naming the file and the record it stopped at.
func ReadManifests(path string) ([]Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Manifest
	dec := json.NewDecoder(bytes.NewReader(buf))
	for dec.More() {
		var m Manifest
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("%s: manifest record %d: %w", path, len(out)+1, err)
		}
		out = append(out, m)
	}
	return out, nil
}
