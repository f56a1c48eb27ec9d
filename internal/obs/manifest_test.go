package obs

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results", "manifests.jsonl")
	w, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	in := []Manifest{
		{
			Label: "TPC-H shared-4-way/affinity", Workloads: []string{"TPC-H"},
			GroupSize: 4, Policy: "affinity", Scale: 16, Seed: 1,
			WarmupRefs: 2000, MeasureRefs: 4000,
			Refs: 64000, Cycles: 123456, WallSeconds: 0.25,
		},
		{
			Label: "TPC-W+SPECjbb shared/rr", Workloads: []string{"TPC-W", "SPECjbb"},
			GroupSize: 16, Policy: "rr", Scale: 4, Seed: 7,
			WarmupRefs: 1000, MeasureRefs: 2000, SnapshotRefs: 500,
			Refs: 96000, Cycles: 654321, WallSeconds: 1.5,
			Parallel: 4,
		},
	}
	for _, m := range in {
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := ReadManifests(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d manifests, wrote %d", len(out), len(in))
	}
	for i := range in {
		got, want := out[i], in[i]
		if got.Label != want.Label || got.GroupSize != want.GroupSize ||
			got.Policy != want.Policy || got.Scale != want.Scale ||
			got.Seed != want.Seed ||
			got.Refs != want.Refs || got.Cycles != want.Cycles ||
			got.WallSeconds != want.WallSeconds || got.Parallel != want.Parallel {
			t.Errorf("manifest %d round-trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
		// Environment fields are stamped by Write, not the caller.
		if got.Time == "" || got.Tool == "" || got.GoVersion == "" {
			t.Errorf("manifest %d missing stamped fields: %+v", i, got)
		}
		if !strings.HasPrefix(got.Tool, "consim ") {
			t.Errorf("manifest %d tool = %q", i, got.Tool)
		}
	}
}

// TestManifestStampsEnvironment checks Write fills the v2 schema
// fields the caller left zero, and records the time-series sidecar path
// only for runs that carried a recorder.
func TestManifestStampsEnvironment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	w, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetTimeseriesPath("results/ts.jsonl")
	if err := w.Write(Manifest{Label: "plain"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Manifest{Label: "recorded", TimeseriesRun: 3, TimeseriesRows: 40}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	out, err := ReadManifests(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range out {
		if m.Version != ManifestVersion {
			t.Errorf("manifest %d version = %d, want %d", i, m.Version, ManifestVersion)
		}
		if m.GOMAXPROCS == 0 || m.NumCPU == 0 {
			t.Errorf("manifest %d missing host parallelism: %+v", i, m)
		}
	}
	if out[0].Timeseries != "" {
		t.Errorf("run without a recorder got a sidecar path %q", out[0].Timeseries)
	}
	if out[1].Timeseries != "results/ts.jsonl" || out[1].TimeseriesRun != 3 || out[1].TimeseriesRows != 40 {
		t.Errorf("recorded run sidecar reference = %+v", out[1])
	}
}

// TestReadManifestsBackwardCompat decodes a pre-v2 line (no version, no
// gomaxprocs, no phase): old sidecars must keep reading, with the new
// fields zero.
func TestReadManifestsBackwardCompat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.jsonl")
	old := `{"time":"2026-01-01T00:00:00Z","tool":"consim v0.6","go_version":"go1.22",` +
		`"label":"TPC-H shared/affinity","workloads":["TPC-H"],"group_size":4,"policy":"affinity",` +
		`"scale":16,"seed":1,"warmup_refs":2000,"measure_refs":4000,"replicates":1,` +
		`"refs":64000,"cycles":123456,"wall_seconds":0.25,"cpu_seconds":0.3}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := ReadManifests(path)
	if err != nil {
		t.Fatalf("old-schema sidecar failed to read: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("read %d records, want 1", len(out))
	}
	m := out[0]
	if m.Label != "TPC-H shared/affinity" || m.Refs != 64000 {
		t.Fatalf("old record mangled: %+v", m)
	}
	if m.Version != 0 || m.GOMAXPROCS != 0 || m.NumCPU != 0 || m.Phase != nil || m.Timeseries != "" {
		t.Fatalf("old record grew phantom v2 fields: %+v", m)
	}
}

// removedEngineManifest is one v2 line written by the last build that had
// the -shards engine (c5e96e4, `consim -mix 5 -scale 32 -shards 2`): it
// carries shards, shard_prefills, shard_sync_fills, shard_think_batches,
// shard_stalls, shard_stall_seconds and phase.lane_busy_seconds, none of
// which Manifest or PhaseProfile declare any more.
const removedEngineManifest = "testdata/manifest_v2_shards2.jsonl"

// replicatedManifest is one v2 line written by the last build that could
// merge replicates (ba8b17b, harness.Options{Replicates: 3} on TPC-H at
// scale 64): it carries "replicates":3, which Manifest no longer
// declares, and a phase profile covering one replicate of the summed
// wall time.
const replicatedManifest = "testdata/manifest_v2_replicates3.jsonl"

// pipelinedManifest is one v2 line written by the last build that had
// -pdes window/replay pipelining (fd9b84a, `consim -workloads
// TPC-H,SPECjbb -group 4 -scale 64 -warm 2000 -meas 8000 -pdes 2
// -pdes-replay-workers 2 -pdes-pipeline`): it carries "pdes_pipelined",
// "pdes_replay_workers" and the phase's pipeline-overlap, sharded-replay
// and ops-by-group fields, which Manifest and PhaseProfile no longer
// declare.
const pipelinedManifest = "testdata/manifest_v2_pdes_pipelined.jsonl"

// retiredBenchHistory is the frozen cmd/bench history: a JSON array of
// objects that are not manifests, which no reader takes since PR 19.
const retiredBenchHistory = "../../results/BENCH_consim.json"

// readOldRecord reads path, a one-record fixture an older build wrote,
// after checking it still carries fields, the removed fields it exists
// to carry. It holds obs diff to taking the record as one run that is no
// regression against itself, and returns the record.
func readOldRecord(t *testing.T, path string, fields ...string) Manifest {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range fields {
		if !strings.Contains(string(raw), field) {
			t.Fatalf("fixture lost the removed field %s it exists to carry", field)
		}
	}
	ms, err := ReadManifests(path)
	if err != nil {
		t.Fatalf("parent-written manifest failed to read: %v", err)
	}
	if len(ms) != 1 {
		t.Fatalf("read %d records, want 1", len(ms))
	}
	runs, err := ReadRunSummaries(path)
	if err != nil || len(runs) != 1 {
		t.Fatalf("ReadRunSummaries: runs=%d err=%v", len(runs), err)
	}
	var diff strings.Builder
	if n := DiffSummaries(&diff, runs[0], runs[0], 0.05); n != 0 {
		t.Errorf("self-diff flagged %d regressions:\n%s", n, diff.String())
	}
	return ms[0]
}

// TestReadManifestsRemovedEngineFields holds the reading side to its
// contract for sidecars that outlive a field: the record reads, the
// unknown fields are ignored, and report and diff treat the run as the
// sequential run its results were bit-identical to.
func TestReadManifestsRemovedEngineFields(t *testing.T) {
	m := readOldRecord(t, removedEngineManifest,
		`"shards":2`, `"shard_prefills":`, `"shard_stall_seconds":`, `"lane_busy_seconds":[`)
	if m.Version != 2 || m.Refs != 614281 || m.Cycles != 751671 || m.Phase == nil || m.Phase.MeasureSeconds <= 0 {
		t.Fatalf("record mangled: %+v", m)
	}
	if e := m.Phase.Engine(); e != "" {
		t.Errorf("engine = %q, want the sequential engine", e)
	}
	var rep strings.Builder
	WritePhaseReport(&rep, m, nil)
	if !strings.Contains(rep.String(), "engine=sequential") || strings.Contains(rep.String(), "lane") {
		t.Errorf("report of a removed-engine record:\n%s", rep.String())
	}
}

// TestReadManifestsReplicatedRecord reads a record of a merged
// replicate run: it reads, and report and diff take it as one run.
func TestReadManifestsReplicatedRecord(t *testing.T) {
	m := readOldRecord(t, replicatedManifest, `"replicates":3`)
	if m.Label != "TPC-H shared-4-way/affinity 1/64" || m.Refs != 12695 || m.Layers == nil || m.Layers.MemReads != 3840 {
		t.Fatalf("record mangled: %+v", m)
	}
	var rep strings.Builder
	WritePhaseReport(&rep, m, nil)
	if !strings.Contains(rep.String(), "memory system") {
		t.Errorf("report of a replicated record:\n%s", rep.String())
	}
}

// TestReadManifestsPipelinedRecord reads a record of a pipelined,
// sharded-replay -pdes run: it reads as the -pdes run it was, and
// report and diff take it as one run.
func TestReadManifestsPipelinedRecord(t *testing.T) {
	m := readOldRecord(t, pipelinedManifest, `"pdes_pipelined":true`, `"pdes_pipeline_overlap_seconds":`,
		`"pdes_replay_workers":2`, `"pdes_replay_parallel_seconds":`, `"pdes_replay_merge_seconds":`,
		`"pdes_apply_ops_by_group":[`)
	if m.Refs != 183631 || m.PdesWorkers != 2 || m.Phase == nil || len(m.Phase.Domains) != 2 {
		t.Fatalf("record mangled: %+v", m)
	}
	var rep strings.Builder
	WritePhaseReport(&rep, m, nil)
	out := rep.String()
	if !strings.Contains(out, "engine=pdes") {
		t.Errorf("report of a pipelined record missing %q:\n%s", "engine=pdes", out)
	}
	if strings.Contains(out, "overlap") {
		t.Errorf("report of a pipelined record still shows the overlap line:\n%s", out)
	}
}

// FuzzReadManifests holds the manifest reader, and the report and diff
// arithmetic downstream of it, to "an error or a clean read, never a
// panic or a hang" on arbitrary sidecar bytes: negative seconds, zero
// wall time, domain and per-group lists of any length.
func FuzzReadManifests(f *testing.F) {
	old, err := os.ReadFile(removedEngineManifest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	f.Add(old[:len(old)/2])
	replicated, err := os.ReadFile(replicatedManifest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(replicated)
	pipelined, err := os.ReadFile(pipelinedManifest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pipelined)
	// The first record of the retired bench history: a JSON object that
	// is no manifest (no label, no refs) and reads as an all-zero one.
	hist, err := os.ReadFile(retiredBenchHistory)
	if err != nil {
		f.Fatal(err)
	}
	var recs []json.RawMessage
	if err := json.Unmarshal(hist, &recs); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(recs[0]))
	f.Add([]byte(`{"version":2,"label":"pdes","refs":10,"wall_seconds":-1,"pdes_workers":2,"timeseries_run":1,` +
		`"sample_windows":3,"sample_detailed_refs":5,"sample_skipped_refs":7,` +
		`"phase":{"warmup_seconds":-0.5,"measure_seconds":1e308,"pdes_window_seconds":0,"pdes_replay_seconds":2,` +
		`"sample_detailed_seconds":1,"sample_ff_seconds":-3,` +
		`"domains":[{"domain":-1,"cores":0,"cycles":18446744073709551615,"ops":1,"busy_seconds":-1}],` +
		`"pdes_apply_ops_by_group":[18446744073709551615,18446744073709551615,0]}}` + "\n"))
	f.Add([]byte(`{"version":2,"label":"layers","refs":10,"wall_seconds":1,"sample_windows":2,` +
		`"layers":{"cache":[{"accesses":10,"misses":11,"evictions":18446744073709551615},{},{"accesses":0,"misses":3}],` +
		`"dir_entries":1,"dircache_hits":18446744073709551615,"dircache_misses":1,"mem_reads":0,"mem_wait_cycles":7}}` + "\n"))
	path := filepath.Join(f.TempDir(), "m.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ms, err := ReadManifests(path)
		if err != nil {
			return
		}
		for _, m := range ms {
			WritePhaseReport(io.Discard, m, nil)
			s := SummarizeManifest(m)
			DiffSummaries(io.Discard, s, s, 0.05)
		}
	})
}

func TestReadManifestsErrorPaths(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// An empty sidecar is no records, not an error (a fresh -manifest
	// file that no run wrote to yet).
	out, err := ReadManifests(write("empty.jsonl", ""))
	if err != nil || len(out) != 0 {
		t.Errorf("empty file: out=%v err=%v, want nil/nil", out, err)
	}

	// A truncated final line (crash mid-append) is an error, not silent
	// data loss.
	if _, err := ReadManifests(write("trunc.jsonl",
		`{"label":"ok","wall_seconds":1}`+"\n"+`{"label":"cut","wall_se`)); err == nil {
		t.Error("truncated line did not error")
	}

	// Non-JSON garbage is an error.
	if _, err := ReadManifests(write("bad.jsonl", "not json at all\n")); err == nil {
		t.Error("bad JSON did not error")
	}

	// A missing file surfaces the filesystem error.
	if _, err := ReadManifests(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("missing file did not error")
	}
}

func TestManifestAppendsAcrossWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	for i := 0; i < 2; i++ {
		w, err := OpenManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(Manifest{Label: "run", Workloads: []string{"TPC-H"}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ReadManifests(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("re-opened sidecar holds %d records, want 2 (append, not truncate)", len(out))
	}
}
